// Package sat is the satisfiability core behind program analysis,
// compilation and synthesis: an exact finite-domain equality solver over
// disjunctions of conjunctions.
//
// Guardrail conditions are conjunctions of equality atoms over categorical
// attributes. With every attribute unbounded (nil Domains) a conjunction is
// satisfiable iff no attribute is bound to two different literals, and
// implication between conjunctions is atom-set containment. The program
// analyzer needs two things that atom-set algebra cannot see: per-attribute
// domain cardinalities ("the guard a=x fails for every row because x is not
// in a's dictionary"; "branches a=x and a=y are exhaustive because
// dom(a)={x,y}") and disjunction (the branch guards of a statement form a
// DNF, and shadowing is implication into the *union* of earlier guards, not
// into any single one). The Solver closes both gaps with a small DPLL-style
// search: unit propagation over equality atoms plus finite-domain pruning,
// branching on the mentioned-values-or-fresh partition of one attribute at
// a time. The procedure is exact — the package's differential oracle tests
// check it against brute-force row enumeration on every small-domain
// instance.
package sat

import (
	"math"
	"sort"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
)

// Domains maps an attribute index to its dictionary cardinality.
// Domains[a] <= 0, or an index outside the slice, means the attribute's
// domain is unknown and treated as unbounded. The nil Domains treats every
// attribute as unbounded, which reduces the Solver to pure atom algebra.
type Domains []int

// Card reports the cardinality of attribute a's value domain, 0 when
// unbounded/unknown.
func (d Domains) Card(a int) int {
	if a < 0 || a >= len(d) || d[a] < 0 {
		return 0
	}
	return d[a]
}

// DomainsOf snapshots rel's per-attribute dictionary sizes; nil rel yields
// nil Domains (every attribute unbounded).
func DomainsOf(rel *dataset.Relation) Domains {
	if rel == nil {
		return nil
	}
	d := make(Domains, rel.NumAttrs())
	for a := range d {
		d[a] = rel.Cardinality(a)
	}
	return d
}

// DNF is a disjunction of conjunctions of equality atoms — the branch
// guards of one statement, in guard order. The empty DNF is FALSE (no row
// matches); DNF{dsl.Condition{}} is TRUE (the empty conjunction matches
// every row).
type DNF []dsl.Condition

// True returns the DNF matched by every row.
func True() DNF { return DNF{dsl.Condition{}} }

// Matches reports whether some conjunct of d matches row.
func (d DNF) Matches(row []int32) bool {
	for _, c := range d {
		if c.Matches(row) {
			return true
		}
	}
	return false
}

// Solver decides satisfiability, implication, and equivalence of DNFs over
// a finite-domain row universe. Each attribute ranges over its dictionary
// codes {0..card-1} (all of int32 >= 0 when unbounded) plus, when
// includeMissing is set, the dataset.Missing sentinel — rows at runtime can
// carry missing cells, so the missing-aware universe is the sound default
// for program equivalence. A Solver is not safe for concurrent use; the
// parallel pipeline gives each worker its own and sums Calls at the
// barrier.
type Solver struct {
	dom     Domains
	missing bool
	calls   int64
}

// NewSolver builds a solver over dom whose universe includes the Missing
// sentinel for every attribute (the runtime row universe).
func NewSolver(dom Domains) *Solver { return &Solver{dom: dom, missing: true} }

// NewValueSolver builds a solver over the values-only universe (no Missing
// sentinel) — the universe of relations without missing cells, used for
// exhaustiveness reporting over observed domains.
func NewValueSolver(dom Domains) *Solver { return &Solver{dom: dom} }

// Calls reports how many core satisfiability queries the solver has run —
// the analysis.solver_calls metric. Every public decision method funnels
// into one or more core queries.
func (s *Solver) Calls() int64 {
	if s == nil {
		return 0
	}
	return s.calls
}

// universeSize returns the number of values attribute a can take, or
// math.MaxInt for an unbounded domain.
func (s *Solver) universeSize(a int) int {
	card := s.dom.Card(a)
	if card == 0 {
		return math.MaxInt
	}
	if s.missing {
		return card + 1
	}
	return card
}

// inUniverse reports whether value v is in attribute a's universe.
func (s *Solver) inUniverse(a int, v int32) bool {
	if v == dataset.Missing {
		return s.missing
	}
	if v < 0 {
		return false
	}
	card := s.dom.Card(a)
	return card == 0 || int(v) < card
}

// SatisfiableCond reports whether some row in the universe satisfies the
// conjunction c — domain-aware, so an atom whose literal falls outside the
// attribute's dictionary makes c unsatisfiable.
func (s *Solver) SatisfiableCond(c dsl.Condition) bool { return s.SatMinus(c) }

// OverlapCond reports whether some row satisfies both a and b.
func (s *Solver) OverlapCond(a, b dsl.Condition) bool {
	both := make(dsl.Condition, 0, len(a)+len(b))
	both = append(both, a...)
	both = append(both, b...)
	return s.SatMinus(both)
}

// ImpliesCond reports a ⇒ b for conjunctions over the universe.
func (s *Solver) ImpliesCond(a, b dsl.Condition) bool { return !s.SatMinus(a, DNF{b}) }

// EquivalentCond reports whether conjunctions a and b match exactly the
// same universe rows.
func (s *Solver) EquivalentCond(a, b dsl.Condition) bool {
	return s.ImpliesCond(a, b) && s.ImpliesCond(b, a)
}

// Satisfiable reports whether some universe row matches d.
func (s *Solver) Satisfiable(d DNF) bool {
	for _, c := range d {
		if s.SatMinus(c) {
			return true
		}
	}
	return false
}

// Implies reports a ⇒ b over DNFs: every universe row matching a matches
// b. Decided one conjunct at a time: a ⇒ b iff each conjunct of a is
// unsatisfiable after subtracting b.
func (s *Solver) Implies(a, b DNF) bool {
	for _, c := range a {
		if s.SatMinus(c, b) {
			return false
		}
	}
	return true
}

// Equivalent reports whether a and b match exactly the same universe rows.
func (s *Solver) Equivalent(a, b DNF) bool { return s.Implies(a, b) && s.Implies(b, a) }

// Exhaustive reports whether d covers the entire universe — every row
// matches some conjunct.
func (s *Solver) Exhaustive(d DNF) bool { return s.Implies(True(), d) }

// SatMinus is the core decision procedure: whether some universe row
// satisfies the conjunction pos while matching none of the subtracted
// DNFs, i.e. sat(pos ∧ ¬minus₀ ∧ ¬minus₁ ∧ …). Negating a DNF yields a
// CNF whose clauses are disjunctions of disequality literals, decided by
// unit propagation plus finite-domain branching. Branch regions (guard k
// minus the union of earlier guards), implication, and statement
// subsumption are all instances of this query.
func (s *Solver) SatMinus(pos dsl.Condition, minus ...DNF) bool {
	s.calls++
	fixed := make(map[int]int32, len(pos))
	for _, p := range pos {
		if !s.inUniverse(p.Attr, p.Value) {
			return false
		}
		if v, ok := fixed[p.Attr]; ok {
			if v != p.Value {
				return false
			}
			continue
		}
		fixed[p.Attr] = p.Value
	}
	var clauses [][]dsl.Pred
	for _, m := range minus {
		for _, conj := range m {
			clause := make([]dsl.Pred, 0, len(conj))
			trivially := false
			for _, p := range conj {
				if !s.inUniverse(p.Attr, p.Value) {
					// The literal attr≠v holds for every universe row, so
					// the clause ¬conj is trivially satisfied.
					trivially = true
					break
				}
				clause = append(clause, p)
			}
			if trivially {
				continue
			}
			if len(clause) == 0 {
				return false // ¬TRUE: no row can avoid the empty conjunction
			}
			clauses = append(clauses, clause)
		}
	}
	return s.search(fixed, map[int]map[int32]bool{}, clauses)
}

// search decides sat(fixed ∧ exclusions ∧ clauses) by unit propagation to
// fixpoint followed by branching on one attribute's mentioned-or-fresh
// value partition. fixed and excl are owned by the caller frame and copied
// before each recursive branch.
func (s *Solver) search(fixed map[int]int32, excl map[int]map[int32]bool, clauses [][]dsl.Pred) bool {
	satisfied := make([]bool, len(clauses))
	for {
		changed := false
		for ci, clause := range clauses {
			if satisfied[ci] {
				continue
			}
			undetermined := 0
			var unit dsl.Pred
			clauseSat := false
			for _, lit := range clause {
				if v, ok := fixed[lit.Attr]; ok {
					if v != lit.Value {
						clauseSat = true
						break
					}
					continue // literal false under the assignment
				}
				if excl[lit.Attr][lit.Value] {
					clauseSat = true // the value is already ruled out
					break
				}
				undetermined++
				unit = lit
			}
			if clauseSat {
				satisfied[ci] = true
				continue
			}
			switch undetermined {
			case 0:
				return false // every literal false: conflict
			case 1:
				// Forced: the remaining literal must hold, excluding one
				// value from unit.Attr's domain.
				ex := excl[unit.Attr]
				if ex == nil {
					ex = map[int32]bool{}
					excl[unit.Attr] = ex
				}
				ex[unit.Value] = true
				satisfied[ci] = true
				changed = true
				if !s.propagateDomain(unit.Attr, fixed, excl) {
					return false
				}
			}
		}
		if !changed {
			break
		}
	}

	// Pick the first clause still undecided and branch on one of its
	// attributes. If none remains, every clause is satisfied (or will be
	// satisfiable by leaving free attributes at any fresh value).
	branchAttr, ok := s.pickBranch(fixed, excl, clauses, satisfied)
	if !ok {
		return true
	}
	for _, v := range s.candidates(branchAttr, fixed, excl, clauses) {
		nf := make(map[int]int32, len(fixed)+1)
		for k, val := range fixed {
			nf[k] = val
		}
		nf[branchAttr] = v
		ne := make(map[int]map[int32]bool, len(excl))
		for k, ex := range excl {
			if k == branchAttr {
				// Safe to drop: candidates() filters every candidate, the
				// fresh representative included, against excl[branchAttr],
				// so the assignment satisfies all of these exclusions.
				continue
			}
			cp := make(map[int32]bool, len(ex))
			for val := range ex {
				cp[val] = true
			}
			ne[k] = cp
		}
		if s.search(nf, ne, remaining(clauses, satisfied)) {
			return true
		}
	}
	return false
}

// propagateDomain applies finite-domain pruning to attribute a after a new
// exclusion: if exclusions cover the whole universe the state is
// unsatisfiable; if they leave exactly one value, a is fixed to it.
func (s *Solver) propagateDomain(a int, fixed map[int]int32, excl map[int]map[int32]bool) bool {
	size := s.universeSize(a)
	if size == math.MaxInt {
		return true
	}
	ex := excl[a]
	live := make([]int32, 0, 2)
	if s.missing && !ex[dataset.Missing] {
		live = append(live, dataset.Missing)
	}
	for v := int32(0); int(v) < s.dom.Card(a) && len(live) < 2; v++ {
		if !ex[v] {
			live = append(live, v)
		}
	}
	switch len(live) {
	case 0:
		return false
	case 1:
		fixed[a] = live[0]
	}
	return true
}

// pickBranch returns an unfixed attribute from the first unsatisfied
// clause, or ok=false when no clause is left undecided.
func (s *Solver) pickBranch(fixed map[int]int32, excl map[int]map[int32]bool, clauses [][]dsl.Pred, satisfied []bool) (int, bool) {
	for ci, clause := range clauses {
		if satisfied[ci] {
			continue
		}
		for _, lit := range clause {
			if _, ok := fixed[lit.Attr]; !ok && !excl[lit.Attr][lit.Value] {
				return lit.Attr, true
			}
		}
	}
	return 0, false
}

// candidates partitions attribute a's universe into the values mentioned
// by some clause literal plus, when the universe is strictly larger, one
// fresh representative (all unmentioned values satisfy exactly the same
// disequality literals, so a single representative is exhaustive).
func (s *Solver) candidates(a int, fixed map[int]int32, excl map[int]map[int32]bool, clauses [][]dsl.Pred) []int32 {
	mentioned := map[int32]bool{}
	var order []int32
	for _, clause := range clauses {
		for _, lit := range clause {
			if lit.Attr == a && s.inUniverse(a, lit.Value) && !mentioned[lit.Value] {
				mentioned[lit.Value] = true
				order = append(order, lit.Value)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	ex := excl[a]
	out := make([]int32, 0, len(order)+1)
	for _, v := range order {
		if !ex[v] {
			out = append(out, v)
		}
	}
	// Fresh representative: any universe value neither mentioned by a
	// current clause literal nor ruled out by an inherited exclusion.
	// Exclusions can outlive the unit clause that forced them — once the
	// clause is satisfied it is dropped by remaining(), so at deeper frames
	// an excluded value is not necessarily mentioned anymore and must be
	// filtered here explicitly; re-assigning it would silently violate the
	// already-discharged clause.
	card := s.dom.Card(a)
	if card == 0 {
		var max int32 = -1
		for _, v := range order {
			if v > max {
				max = v
			}
		}
		for v := range ex {
			if v > max {
				max = v
			}
		}
		out = append(out, max+1)
	} else {
		if s.missing && !mentioned[dataset.Missing] && !ex[dataset.Missing] {
			out = append(out, dataset.Missing)
		} else {
			for v := int32(0); int(v) < card; v++ {
				if !mentioned[v] && !ex[v] {
					out = append(out, v)
					break
				}
			}
		}
	}
	return out
}

// remaining filters out clauses already satisfied, for the recursive call.
func remaining(clauses [][]dsl.Pred, satisfied []bool) [][]dsl.Pred {
	out := make([][]dsl.Pred, 0, len(clauses))
	for i, c := range clauses {
		if !satisfied[i] {
			out = append(out, c)
		}
	}
	return out
}
