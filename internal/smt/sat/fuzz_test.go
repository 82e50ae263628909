package sat

import (
	"testing"

	"github.com/guardrail-db/guardrail/internal/dsl"
)

// FuzzSolver decodes arbitrary bytes into a small instance — domains, a
// positive conjunction, and up to three subtracted DNFs of up to three
// conjunctions x three atoms — and asserts the solver (a) never panics and
// (b) agrees with brute-force row enumeration, on both universes. Domains
// are capped at 3 attributes x cardinality 3 so the oracle stays
// exhaustive; literals may still fall outside the domain. The clause depth
// matters: unit clauses seed exclusions that outlive their clause, and
// multi-atom clauses then force branching under those inherited exclusions
// (the candidates() fresh-representative regression).
func FuzzSolver(f *testing.F) {
	f.Add([]byte{2, 2, 1, 0, 0, 1, 1, 1, 0})
	f.Add([]byte{3, 1, 2, 3, 0, 0, 0, 2, 1, 1, 2, 2, 0, 1})
	f.Add([]byte{1, 3, 0})
	f.Add([]byte{3, 3, 3, 3, 9, 9, 9, 9, 9, 9, 9, 9, 0, 1, 2, 3, 4, 5})
	// The TestSatMinusExclusionRegression instance: ¬(a=0) as a unit clause
	// plus two-atom clauses pinning a=1/a=2 against x's whole domain.
	f.Add([]byte{
		2, 2, 1, 1, // 3 attrs, domains 3,2,2
		0,       // pos: TRUE
		3,       // m1: 3 conjuncts
		1, 0, 1, // {a=0}
		2, 1, 1, 1, 2, // {b=0 ∧ b=1}
		2, 0, 2, 2, 1, // {a=1 ∧ x=0}
		3,             // m2: 3 conjuncts
		2, 0, 2, 2, 2, // {a=1 ∧ x=1}
		2, 0, 3, 2, 1, // {a=2 ∧ x=0}
		2, 0, 3, 2, 2, // {a=2 ∧ x=1}
		0, // m3: FALSE
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() int {
			if i >= len(data) {
				return 0
			}
			b := data[i]
			i++
			return int(b)
		}
		nAttrs := 1 + next()%3
		dom := make(Domains, nAttrs)
		for a := range dom {
			dom[a] = 1 + next()%3
		}
		// Literals in [-1, 4]: Missing, in-domain, and out-of-domain codes.
		atom := func() dsl.Pred {
			return dsl.Pred{Attr: next() % nAttrs, Value: int32(next()%6) - 1}
		}
		cond := func() dsl.Condition {
			n := next() % 4
			c := make(dsl.Condition, 0, n)
			for k := 0; k < n; k++ {
				c = append(c, atom())
			}
			return c
		}
		decodeDNF := func() DNF {
			n := next() % 4
			d := make(DNF, 0, n)
			for k := 0; k < n; k++ {
				d = append(d, cond())
			}
			return d
		}
		pos := cond()
		m1, m2, m3 := decodeDNF(), decodeDNF(), decodeDNF()

		for _, missing := range []bool{true, false} {
			s := &Solver{dom: dom, missing: missing}
			rows := enumerateRows(dom, missing)
			if got, want := s.SatMinus(pos, m1, m2, m3), oracleSatMinus(pos, []DNF{m1, m2, m3}, rows); got != want {
				t.Fatalf("missing=%v dom=%v: SatMinus(%v, %v, %v, %v) = %v, oracle %v",
					missing, dom, pos, m1, m2, m3, got, want)
			}
			if got, want := s.Implies(m1, m2), oracleImpliesDNF(m1, m2, rows); got != want {
				t.Fatalf("missing=%v dom=%v: Implies(%v, %v) = %v, oracle %v",
					missing, dom, m1, m2, got, want)
			}
			if got, want := s.Exhaustive(m1), oracleImpliesDNF(True(), m1, rows); got != want {
				t.Fatalf("missing=%v dom=%v: Exhaustive(%v) = %v, oracle %v",
					missing, dom, m1, got, want)
			}
		}
	})
}
