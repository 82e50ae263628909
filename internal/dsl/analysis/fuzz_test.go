package analysis

import (
	"testing"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/smt/sat"
)

// fuzzRows enumerates every row over dom plus the Missing sentinel.
func fuzzRows(dom sat.Domains) [][]int32 {
	rows := [][]int32{{}}
	for a := 0; a < len(dom); a++ {
		values := []int32{dataset.Missing}
		for v := int32(0); int(v) < dom.Card(a); v++ {
			values = append(values, v)
		}
		var next [][]int32
		for _, r := range rows {
			for _, v := range values {
				next = append(next, append(append([]int32(nil), r...), v))
			}
		}
		rows = next
	}
	return rows
}

func sameBehavior(a, b *dsl.Program, row []int32) bool {
	ea, eb := a.Eval(row), b.Eval(row)
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return (len(a.Detect(row)) > 0) == (len(b.Detect(row)) > 0)
}

// FuzzAnalysis decodes arbitrary bytes into one or two small programs over
// a 3-attribute schema and asserts the semantic guarantees the synthesizer
// relies on: the passes never panic, minimization is behavior-preserving
// (checked by brute-force row enumeration over the widened universe, not
// by the solver that produced it), the minimizer's own proof bit agrees,
// and equal canonical forms imply programs that behave identically on
// every universe row.
func FuzzAnalysis(f *testing.F) {
	f.Add([]byte{1, 0, 2, 2, 1, 0, 0, 1, 1, 1, 0})
	f.Add([]byte{2, 0, 2, 1, 1, 0, 0, 1, 2, 2, 2, 0, 1, 1, 2})
	f.Add([]byte{0})
	f.Add([]byte{2, 2, 2, 3, 9, 9, 9, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8})
	dom := sat.Domains{2, 3, 2}
	rel := dataset.New("t", []string{"a", "b", "c"})
	rel.AppendRow([]string{"a0", "b0", "c0"})
	rel.AppendRow([]string{"a1", "b1", "c1"})
	rel.AppendRow([]string{"a0", "b2", "c0"})
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
		decode := func() *dsl.Program {
			p := &dsl.Program{}
			nStmts := 1 + next()%2
			for s := 0; s < nStmts; s++ {
				st := dsl.Statement{Given: []int{next() % 3}, On: next() % 3}
				nBr := next() % 4
				for b := 0; b < nBr; b++ {
					br := dsl.Branch{Value: int32(next()%6) - 1}
					nAtoms := next() % 3
					for a := 0; a < nAtoms; a++ {
						br.Cond = append(br.Cond, dsl.Pred{Attr: next() % 3, Value: int32(next()%6) - 1})
					}
					st.Branches = append(st.Branches, br)
				}
				p.Stmts = append(p.Stmts, st)
			}
			return p
		}
		p1, p2 := decode(), decode()

		// Crash-freedom of the full pass pipeline, arbitrary program.
		rpt := Program(p1, rel)
		if rpt.Fingerprint != Fingerprint(rpt.Canon) {
			t.Fatal("report fingerprint does not hash its canonical form")
		}

		// Minimization: proved, and actually behavior-preserving over the
		// widened universe the liveness verdicts were judged in.
		min, proved, _ := Minimize(p1, dom)
		if !proved {
			t.Fatalf("minimizer proof failed for %+v", p1)
		}
		for _, row := range fuzzRows(widen(dom, p1)) {
			if !sameBehavior(p1, min, row) {
				t.Fatalf("minimized program diverges on row %v:\norig %+v\nmin  %+v", row, p1, min)
			}
		}

		// Per-statement fragments assemble the canonical form.
		checkFragments(t, p1, dom)

		// Equal canonical forms must mean equal behavior on every base row.
		c1, _ := Canon(p1, dom)
		c2, _ := Canon(p2, dom)
		if c1 == c2 {
			for _, row := range fuzzRows(dom) {
				if !sameBehavior(p1, p2, row) {
					t.Fatalf("canon-equal programs diverge on row %v (canon %q):\np1 %+v\np2 %+v", row, c1, p1, p2)
				}
			}
		}
	})
}
