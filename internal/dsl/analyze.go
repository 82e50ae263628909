package dsl

import (
	"sort"

	"github.com/guardrail-db/guardrail/internal/dataset"
)

// ProgramStats summarizes a program's shape for reporting and tooling.
type ProgramStats struct {
	Statements int
	Branches   int
	// GovernedAttrs are the dependent (ON) attributes, ascending.
	GovernedAttrs []int
	// DeterminantAttrs are all attributes used in GIVEN clauses, ascending.
	DeterminantAttrs []int
	// MaxGiven is the widest determinant set.
	MaxGiven int
	// MaxCondWidth is the widest branch condition.
	MaxCondWidth int
}

// Analyze computes ProgramStats.
func Analyze(p *Program) ProgramStats {
	st := ProgramStats{Statements: len(p.Stmts)}
	governed := map[int]bool{}
	determinants := map[int]bool{}
	for _, s := range p.Stmts {
		st.Branches += len(s.Branches)
		governed[s.On] = true
		if len(s.Given) > st.MaxGiven {
			st.MaxGiven = len(s.Given)
		}
		for _, g := range s.Given {
			determinants[g] = true
		}
		for _, b := range s.Branches {
			if len(b.Cond) > st.MaxCondWidth {
				st.MaxCondWidth = len(b.Cond)
			}
		}
	}
	st.GovernedAttrs = sortedKeys(governed)
	st.DeterminantAttrs = sortedKeys(determinants)
	return st
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Equivalent reports whether two programs behave identically on every row
// of rel: the same violation verdict per row (duplicate statements fire
// duplicate violations, so counts are not compared) and the same rectified
// output.
func Equivalent(a, b *Program, rel *dataset.Relation) bool {
	rowA := make([]int32, rel.NumAttrs())
	rowB := make([]int32, rel.NumAttrs())
	for i := 0; i < rel.NumRows(); i++ {
		rowA = rel.Row(i, rowA)
		rowB = rel.Row(i, rowB)
		va, vb := a.Detect(rowA), b.Detect(rowB)
		if (len(va) > 0) != (len(vb) > 0) {
			return false
		}
		a.Rectify(rowA)
		b.Rectify(rowB)
		for c := range rowA {
			if rowA[c] != rowB[c] {
				return false
			}
		}
	}
	return true
}
