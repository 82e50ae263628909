// Package dsl implements Guardrail's domain-specific language for
// data-generating processes (§2.2 of the paper):
//
//	p ∈ Prog      := s*
//	s ∈ Stmt      := GIVEN a+ ON a HAVING b+
//	b ∈ Branch    := IF c THEN a <- l
//	c ∈ Condition := a = l | c AND c
//
// Programs operate on encoded rows (slices of dataset codes). The package
// provides the denotational semantics (execution, violation detection,
// rectification), the branch-level 0/1 loss (Eqn. 2), ε-validity
// (Eqn. 3–4), and coverage (Eqn. 5–6), plus a textual surface syntax with a
// parser and printer.
package dsl

import (
	"fmt"

	"github.com/guardrail-db/guardrail/internal/dataset"
)

// Pred is one equality atom "attr = literal" over encoded values.
type Pred struct {
	Attr  int   // attribute index
	Value int32 // literal code in the attribute's dictionary
}

// Condition is a conjunction of equality atoms (the "c AND c" production).
type Condition []Pred

// Matches reports whether row satisfies every atom.
func (c Condition) Matches(row []int32) bool {
	for _, p := range c {
		if row[p.Attr] != p.Value {
			return false
		}
	}
	return true
}

// Branch is "IF c THEN On <- Value"; On is carried by the statement.
type Branch struct {
	Cond  Condition
	Value int32
}

// Statement is "GIVEN Given ON On HAVING Branches".
type Statement struct {
	Given    []int
	On       int
	Branches []Branch
}

// Program is a sequence of statements describing the whole DGP.
type Program struct {
	Stmts []Statement
}

// Violation records one row/statement disagreement found by Detect.
type Violation struct {
	Stmt     int   // statement index within the program
	Attr     int   // the dependent attribute
	Expected int32 // the code the matched branch assigns
	Actual   int32 // the code observed in the row
}

// matchBranch returns the first branch of s whose condition matches row.
func (s *Statement) matchBranch(row []int32) (Branch, bool) {
	for _, b := range s.Branches {
		if b.Cond.Matches(row) {
			return b, true
		}
	}
	return Branch{}, false
}

// Eval executes p on row, returning the updated state (⟦p⟧_t): each
// statement whose branch condition matches assigns the dependent
// attribute. The input row is not mutated.
func (p *Program) Eval(row []int32) []int32 {
	out := append([]int32(nil), row...)
	for _, s := range p.Stmts {
		if b, ok := s.matchBranch(out); ok {
			out[s.On] = b.Value
		}
	}
	return out
}

// Detect returns every violation of p by row — the assertion ⟦p⟧_t = t of
// Eqn. 1 evaluated per statement. Matching uses the original row so
// violations are independent of statement order.
func (p *Program) Detect(row []int32) []Violation {
	var out []Violation
	for i, s := range p.Stmts {
		if b, ok := s.matchBranch(row); ok && row[s.On] != b.Value {
			out = append(out, Violation{Stmt: i, Attr: s.On, Expected: b.Value, Actual: row[s.On]})
		}
	}
	return out
}

// Rectify overwrites each violated dependent attribute with the value the
// matched branch assigns, in place, and reports how many assignments it
// made. That is not the number of changed cells: two statements on one
// attribute can each rewrite it and leave the row as it arrived.
func (p *Program) Rectify(row []int32) int {
	changed := 0
	for _, s := range p.Stmts {
		if b, ok := s.matchBranch(row); ok && row[s.On] != b.Value {
			row[s.On] = b.Value
			changed++
		}
	}
	return changed
}

// NumBranches counts branches across all statements.
func (p *Program) NumBranches() int {
	n := 0
	for _, s := range p.Stmts {
		n += len(s.Branches)
	}
	return n
}

// BranchSupport counts the rows of rel matching b's condition (|D^b|).
func BranchSupport(b Branch, rel *dataset.Relation) int {
	n := rel.NumRows()
	count := 0
	for i := 0; i < n; i++ {
		if matchesRel(b.Cond, rel, i) {
			count++
		}
	}
	return count
}

func matchesRel(c Condition, rel *dataset.Relation, row int) bool {
	for _, p := range c {
		if rel.Code(row, p.Attr) != p.Value {
			return false
		}
	}
	return true
}

// BranchLoss computes the 0/1 loss of Eqn. 2 together with the branch
// support |D^b|: the number of matching rows whose dependent value differs
// from the branch's assignment.
func BranchLoss(b Branch, on int, rel *dataset.Relation) (loss, support int) {
	n := rel.NumRows()
	for i := 0; i < n; i++ {
		if !matchesRel(b.Cond, rel, i) {
			continue
		}
		support++
		if rel.Code(i, on) != b.Value {
			loss++
		}
	}
	return loss, support
}

// EpsValidStatement reports whether every branch of s satisfies
// L(b, D) <= |D^b|·ε (Eqn. 4).
func EpsValidStatement(s Statement, rel *dataset.Relation, eps float64) bool {
	for _, b := range s.Branches {
		loss, support := BranchLoss(b, s.On, rel)
		if float64(loss) > float64(support)*eps {
			return false
		}
	}
	return true
}

// EpsValid reports whether every branch of p is ε-valid on rel (Eqn. 3).
func EpsValid(p *Program, rel *dataset.Relation, eps float64) bool {
	for _, s := range p.Stmts {
		if !EpsValidStatement(s, rel, eps) {
			return false
		}
	}
	return true
}

// StatementCoverage computes cov(s, D) = |D^s| / |D| (Eqn. 6), where D^s is
// the union of branch supports. Branch conditions within one statement
// share a determinant set, so their supports are disjoint and summing is
// exact.
func StatementCoverage(s Statement, rel *dataset.Relation) float64 {
	if rel.NumRows() == 0 {
		return 0
	}
	total := 0
	for _, b := range s.Branches {
		total += BranchSupport(b, rel)
	}
	return float64(total) / float64(rel.NumRows())
}

// Coverage computes the program coverage: the average statement coverage
// (the paper's program-level definition).
func Coverage(p *Program, rel *dataset.Relation) float64 {
	if len(p.Stmts) == 0 {
		return 0
	}
	var sum float64
	for _, s := range p.Stmts {
		sum += StatementCoverage(s, rel)
	}
	return sum / float64(len(p.Stmts))
}

// Loss sums the branch losses of p over rel.
func Loss(p *Program, rel *dataset.Relation) int {
	total := 0
	for _, s := range p.Stmts {
		for _, b := range s.Branches {
			l, _ := BranchLoss(b, s.On, rel)
			total += l
		}
	}
	return total
}

// Validate checks that every attribute index and literal code in p is
// within rel's bounds, so Eval/Detect cannot panic.
func (p *Program) Validate(rel *dataset.Relation) error {
	na := rel.NumAttrs()
	check := func(attr int, v int32, what string) error {
		if attr < 0 || attr >= na {
			return fmt.Errorf("dsl: %s attribute %d out of range [0,%d)", what, attr, na)
		}
		if v != dataset.Missing && (v < 0 || int(v) >= rel.Cardinality(attr)) {
			return fmt.Errorf("dsl: %s literal %d out of range for attribute %s", what, v, rel.Attr(attr))
		}
		return nil
	}
	for si, s := range p.Stmts {
		if s.On < 0 || s.On >= na {
			return fmt.Errorf("dsl: statement %d ON attribute %d out of range", si, s.On)
		}
		if len(s.Given) == 0 {
			return fmt.Errorf("dsl: statement %d has empty GIVEN clause", si)
		}
		for _, g := range s.Given {
			if g < 0 || g >= na {
				return fmt.Errorf("dsl: statement %d GIVEN attribute %d out of range", si, g)
			}
			if g == s.On {
				return fmt.Errorf("dsl: statement %d GIVEN contains its ON attribute", si)
			}
		}
		if len(s.Branches) == 0 {
			return fmt.Errorf("dsl: statement %d has no branches", si)
		}
		for _, b := range s.Branches {
			if err := check(s.On, b.Value, "THEN"); err != nil {
				return err
			}
			for _, pr := range b.Cond {
				if err := check(pr.Attr, pr.Value, "IF"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
