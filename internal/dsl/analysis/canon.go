// Canonical semantic forms, fingerprints, and the semantics-preserving
// minimizer.
//
// The canonical form of a program keeps exactly what determines its
// runtime behavior and nothing else: statement order (Rectify mutates the
// row sequentially, so interfering statements are order-sensitive), each
// statement's dependent attribute, and its live branches in order with
// guards rendered as sorted atom sets. GIVEN clauses, dead branches, and
// no-op statements are erased. Equal canonical forms therefore imply
// semantically equivalent programs — the property the synthesizer's
// dedup pass relies on.
//
// Soundness of the erasures is judged over a *widened* universe: each
// attribute's domain is raised to include every literal the program
// mentions (guards and assigned values), plus the Missing sentinel. Any
// row the program can ever see — an input row over the dictionary, or an
// intermediate state produced by its own assignments — lies inside that
// universe, so a branch whose region is empty over it can truly never
// fire.

package analysis

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/smt/sat"
)

// widen raises each bounded attribute domain of dom to cover every
// non-Missing literal p mentions, extending the slice when p names
// attributes beyond it. Unbounded domains stay unbounded.
func widen(dom sat.Domains, p *dsl.Program) sat.Domains {
	need := func(a int, v int32) int {
		if v < 0 { // Missing or invalid: never enlarges a value domain
			return 0
		}
		return int(v) + 1
	}
	maxAttr := len(dom) - 1
	for _, st := range p.Stmts {
		if st.On > maxAttr {
			maxAttr = st.On
		}
		for _, b := range st.Branches {
			for _, pr := range b.Cond {
				if pr.Attr > maxAttr {
					maxAttr = pr.Attr
				}
			}
		}
	}
	out := make(sat.Domains, maxAttr+1)
	for a := range out {
		out[a] = dom.Card(a)
	}
	bump := func(a int, v int32) {
		if a < 0 || out[a] == 0 { // unbounded already covers every value
			return
		}
		if n := need(a, v); n > out[a] {
			out[a] = n
		}
	}
	for _, st := range p.Stmts {
		for _, b := range st.Branches {
			bump(st.On, b.Value)
			for _, pr := range b.Cond {
				bump(pr.Attr, pr.Value)
			}
		}
	}
	return out
}

// Widen exposes the canonicalizer's universe widening: each bounded
// attribute domain of dom is raised to cover every literal p mentions, so
// any row the program can see — input or intermediate state — lies inside
// the returned Domains. The compiler's translation validator shares this
// universe so its equivalence proofs quantify over the same row set as
// Canon.
func Widen(dom sat.Domains, p *dsl.Program) sat.Domains { return widen(dom, p) }

// Canon returns the canonical semantic form of p over the runtime row
// universe derived from dom, plus the number of solver queries spent.
// Equal canonical forms imply semantically equivalent programs; the
// converse does not hold (canonicalization is sound, not complete).
func Canon(p *dsl.Program, dom sat.Domains) (string, int64) {
	if p == nil {
		return "", 0
	}
	s := sat.NewSolver(widen(dom, p))
	var b strings.Builder
	for _, st := range p.Stmts {
		b.WriteString(CanonStatement(s, st))
	}
	return b.String(), s.Calls()
}

// CanonStatement returns st's fragment of the canonical form, deciding
// branch liveness with s; a no-op statement's fragment is empty. Canon(p,
// dom) is the concatenation of the fragments of p's statements over
// sat.NewSolver(widen(dom, p)). When every statement of p is
// WithinDomains(st, dom), widen(dom, p) has dom's cardinalities, so each
// fragment can be computed once over sat.NewSolver(dom) and shared by
// every program that contains the statement.
func CanonStatement(s *sat.Solver, st dsl.Statement) string {
	live := liveMask(s, st)
	if !hasLive(live) {
		return "" // no-op statement
	}
	var b strings.Builder
	fmt.Fprintf(&b, "S%d[", st.On)
	for bi, br := range st.Branches {
		if !live[bi] {
			continue
		}
		b.WriteByte('(')
		for ai, atom := range canonAtoms(br.Cond) {
			if ai > 0 {
				b.WriteByte('&')
			}
			fmt.Fprintf(&b, "%d=%d", atom.Attr, atom.Value)
		}
		fmt.Fprintf(&b, ">%d)", br.Value)
	}
	b.WriteByte(']')
	return b.String()
}

// WithinDomains reports whether every literal st mentions is already in
// dom, so that widening cannot raise a domain on st's account: each
// literal is negative (Missing, which widening ignores), names an
// unbounded attribute, or is below its attribute's cardinality.
func WithinDomains(st dsl.Statement, dom sat.Domains) bool {
	in := func(a int, v int32) bool {
		card := dom.Card(a)
		return v < 0 || card == 0 || int(v) < card
	}
	for _, b := range st.Branches {
		if !in(st.On, b.Value) {
			return false
		}
		for _, pr := range b.Cond {
			if !in(pr.Attr, pr.Value) {
				return false
			}
		}
	}
	return true
}

// canonAtoms sorts a guard's atoms by (attr, value) and drops exact
// duplicates. A live guard binds each attribute to at most one value
// (conflicting atoms make it unsatisfiable), so the sorted unique atom
// list is a canonical representation of the matched row set.
func canonAtoms(c dsl.Condition) []dsl.Pred {
	atoms := append([]dsl.Pred(nil), c...)
	sort.Slice(atoms, func(i, j int) bool {
		if atoms[i].Attr != atoms[j].Attr {
			return atoms[i].Attr < atoms[j].Attr
		}
		return atoms[i].Value < atoms[j].Value
	})
	out := atoms[:0]
	for i, a := range atoms {
		if i > 0 && a == atoms[i-1] {
			continue
		}
		out = append(out, a)
	}
	return out
}

// Fingerprint hashes a canonical form to 64 bits (FNV-1a) for compact
// reporting. Dedup decisions compare full canonical strings, never
// fingerprints, so hash collisions cannot merge inequivalent programs.
func Fingerprint(canon string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(canon)) // fnv.Write is documented to never fail
	return h.Sum64()
}

// Minimize returns p with dead branches and no-op statements removed —
// the executable counterpart of Canon — together with a proof bit and
// the solver queries spent. The proof re-derives equivalence from
// scratch: every kept statement is checked to subsume its original and
// vice versa, so a minimizer bug cannot silently change semantics
// (proved=false flags it instead). The input program is not mutated.
func Minimize(p *dsl.Program, dom sat.Domains) (min *dsl.Program, proved bool, calls int64) {
	min = &dsl.Program{}
	if p == nil {
		return min, true, 0
	}
	s := sat.NewSolver(widen(dom, p))
	proved = true
	for _, st := range p.Stmts {
		live := liveMask(s, st)
		pruned := dsl.Statement{Given: append([]int(nil), st.Given...), On: st.On}
		for bi, b := range st.Branches {
			if live[bi] {
				pruned.Branches = append(pruned.Branches, b)
			}
		}
		// Independent equivalence proof for this statement: recompute both
		// live masks and check containment in both directions. For a
		// dropped statement (no live branches) both checks are vacuous and
		// the liveness recomputation itself is the no-op proof.
		origLive := liveMask(s, st)
		prunedLive := liveMask(s, pruned)
		if !subsumes(s, st, origLive, pruned, prunedLive) ||
			!subsumes(s, pruned, prunedLive, st, origLive) {
			proved = false
		}
		if len(pruned.Branches) > 0 {
			min.Stmts = append(min.Stmts, pruned)
		}
	}
	return min, proved, s.Calls()
}
