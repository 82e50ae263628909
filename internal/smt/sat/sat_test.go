package sat

import (
	"testing"

	"github.com/guardrail-db/guardrail/internal/dsl"
)

func cond(pairs ...int32) dsl.Condition {
	var c dsl.Condition
	for i := 0; i+1 < len(pairs); i += 2 {
		c = append(c, dsl.Pred{Attr: int(pairs[i]), Value: pairs[i+1]})
	}
	return c
}

// The conjunction tests below run on the domain-free solver, the one the
// program verifier uses: with every attribute unbounded, satisfiability and
// implication reduce to atom-set algebra.

func TestSatisfiable(t *testing.T) {
	cases := []struct {
		name string
		c    dsl.Condition
		want bool
	}{
		{"empty", nil, true},
		{"single", cond(0, 1), true},
		{"duplicate atom", cond(0, 1, 0, 1), true},
		{"conflicting atoms", cond(0, 1, 0, 2), false},
		{"conflict after others", cond(1, 5, 2, 7, 1, 6), false},
	}
	s := NewSolver(nil)
	for _, tc := range cases {
		if got := s.SatisfiableCond(tc.c); got != tc.want {
			t.Errorf("%s: SatisfiableCond = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestImplies(t *testing.T) {
	cases := []struct {
		name string
		a, b dsl.Condition
		want bool
	}{
		{"everything implies empty", cond(0, 1), nil, true},
		{"empty does not imply atom", nil, cond(0, 1), false},
		{"superset implies subset", cond(0, 1, 1, 2), cond(0, 1), true},
		{"subset does not imply superset", cond(0, 1), cond(0, 1, 1, 2), false},
		{"same attr different value", cond(0, 1), cond(0, 2), false},
		{"equal", cond(0, 1, 1, 2), cond(1, 2, 0, 1), true},
		{"unsat a implies anything", cond(0, 1, 0, 2), cond(3, 3), true},
		{"nothing sat implies unsat b", cond(0, 1), cond(2, 1, 2, 2), false},
	}
	s := NewSolver(nil)
	for _, tc := range cases {
		if got := s.ImpliesCond(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: ImpliesCond = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestEquivalent(t *testing.T) {
	s := NewSolver(nil)
	if !s.EquivalentCond(cond(0, 1, 1, 2), cond(1, 2, 0, 1, 0, 1)) {
		t.Error("permuted + duplicated atoms should be equivalent")
	}
	if s.EquivalentCond(cond(0, 1), cond(0, 1, 1, 2)) {
		t.Error("strict subset is not equivalent")
	}
}

func TestOverlap(t *testing.T) {
	cases := []struct {
		name string
		a, b dsl.Condition
		want bool
	}{
		{"disjoint attrs overlap", cond(0, 1), cond(1, 2), true},
		{"agreeing shared attr", cond(0, 1, 1, 2), cond(0, 1, 2, 3), true},
		{"conflicting shared attr", cond(0, 1), cond(0, 2), false},
		{"unsat side", cond(0, 1, 0, 2), cond(1, 1), false},
		{"both empty", nil, nil, true},
	}
	s := NewSolver(nil)
	for _, tc := range cases {
		if got := s.OverlapCond(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: OverlapCond = %v, want %v", tc.name, got, tc.want)
		}
	}
}
