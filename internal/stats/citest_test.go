package stats

import (
	"math"
	"math/rand"
	"testing"
)

// matrix is a simple in-memory Data implementation for tests.
type matrix struct {
	cols  [][]int32
	cards []int
}

func (m *matrix) NumVars() int        { return len(m.cols) }
func (m *matrix) N() int              { return len(m.cols[0]) }
func (m *matrix) Card(i int) int      { return m.cards[i] }
func (m *matrix) Codes(i int) []int32 { return m.cols[i] }

// genChain samples x -> y -> z so x ⟂ z | y but x ⊥̸ z marginally.
func genChain(n int, seed int64) *matrix {
	rng := rand.New(rand.NewSource(seed))
	x := make([]int32, n)
	y := make([]int32, n)
	z := make([]int32, n)
	for i := 0; i < n; i++ {
		x[i] = int32(rng.Intn(3))
		// y depends strongly on x
		if rng.Float64() < 0.9 {
			y[i] = x[i]
		} else {
			y[i] = int32(rng.Intn(3))
		}
		// z depends strongly on y
		if rng.Float64() < 0.9 {
			z[i] = y[i]
		} else {
			z[i] = int32(rng.Intn(3))
		}
	}
	return &matrix{cols: [][]int32{x, y, z}, cards: []int{3, 3, 3}}
}

func TestGTestDependence(t *testing.T) {
	d := genChain(4000, 1)
	res, err := GTest(d, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Independent(0.05) {
		t.Fatalf("x and y should be dependent: p = %g", res.P)
	}
	res, err = GTest(d, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Independent(0.05) {
		t.Fatalf("x and z should be marginally dependent: p = %g", res.P)
	}
}

func TestGTestConditionalIndependence(t *testing.T) {
	d := genChain(8000, 2)
	res, err := GTest(d, 0, 2, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Independent(0.01) {
		t.Fatalf("x ⟂ z | y should hold: p = %g stat = %g", res.P, res.Stat)
	}
}

func TestGTestIndependentVars(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 5000
	x := make([]int32, n)
	y := make([]int32, n)
	for i := range x {
		x[i] = int32(rng.Intn(4))
		y[i] = int32(rng.Intn(4))
	}
	d := &matrix{cols: [][]int32{x, y}, cards: []int{4, 4}}
	res, err := GTest(d, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Independent(0.001) {
		t.Fatalf("independent vars rejected: p = %g", res.P)
	}
}

func TestGTestErrors(t *testing.T) {
	d := genChain(100, 4)
	if _, err := GTest(d, 0, 0, nil); err == nil {
		t.Fatal("expected error for x == y")
	}
	if _, err := GTest(d, 0, 1, []int{0}); err == nil {
		t.Fatal("expected error for conditioning on tested var")
	}
}

func TestGTestEmptyData(t *testing.T) {
	d := &matrix{cols: [][]int32{{}, {}}, cards: []int{2, 2}}
	res, err := GTest(d, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Independent(0.05) {
		t.Fatal("empty data must report independence")
	}
}

func TestGTestMissingCategory(t *testing.T) {
	// Missing codes (-1) must be tolerated as their own category.
	x := []int32{0, 1, -1, 0, 1, -1, 0, 1}
	y := []int32{0, 1, 1, 0, 1, 1, 0, 1}
	d := &matrix{cols: [][]int32{x, y}, cards: []int{2, 2}}
	if _, err := GTest(d, 0, 1, nil); err != nil {
		t.Fatalf("missing category not handled: %v", err)
	}
}

func TestGTestSparseUnreliable(t *testing.T) {
	// 8 rows over a 4x4 table with conditioning: far too sparse; the result
	// must be flagged unreliable and default to independence.
	rng := rand.New(rand.NewSource(5))
	n := 8
	cols := make([][]int32, 3)
	for c := range cols {
		cols[c] = make([]int32, n)
		for i := range cols[c] {
			cols[c][i] = int32(rng.Intn(4))
		}
	}
	d := &matrix{cols: cols, cards: []int{4, 4, 4}}
	res, err := GTest(d, 0, 1, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliant {
		t.Fatal("sparse test should be flagged unreliable")
	}
	if !res.Independent(0.05) {
		t.Fatal("unreliable test must report independence")
	}
}

// TestGFromStrataDeterministic: G² accumulates floating-point terms across
// strata, and float addition is not associative — iterating the strata map
// in Go's randomized order made the low bits of the statistic (and
// p-values near alpha) differ run to run. The fix iterates strata in
// sorted-key order; this pins bit-identical results across many runs and
// across permuted row insert orders.
func TestGFromStrataDeterministic(t *testing.T) {
	// Many strata with counts of wildly different magnitudes, so any
	// reordering of the float accumulation is near-certain to change the
	// low bits of the sum.
	rng := rand.New(rand.NewSource(11))
	n := 4000
	cols := make([][]int32, 4)
	cards := []int{3, 3, 5, 7}
	for c := range cols {
		cols[c] = make([]int32, n)
		for i := range cols[c] {
			if rng.Intn(97) == 0 {
				cols[c][i] = -1 // missing category exercises the extra slot
				continue
			}
			// Skewed draws give strata with very unequal totals.
			v := rng.Intn(cards[c] * cards[c])
			if v >= cards[c] {
				v = 0
			}
			cols[c][i] = int32(v)
		}
	}
	d := &matrix{cols: cols, cards: cards}
	ref, err := GTest(d, 0, 1, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 50; run++ {
		res, err := GTest(d, 0, 1, []int{2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Stat) != math.Float64bits(ref.Stat) ||
			math.Float64bits(res.P) != math.Float64bits(ref.P) || res.Dof != ref.Dof {
			t.Fatalf("run %d: G²/p drifted: got (%x, %x, %d), want (%x, %x, %d)",
				run, math.Float64bits(res.Stat), math.Float64bits(res.P), res.Dof,
				math.Float64bits(ref.Stat), math.Float64bits(ref.P), ref.Dof)
		}
	}
	// Permuting the rows permutes strata-map insertion order but not the
	// data; the statistic must not move by a bit.
	for run := 0; run < 20; run++ {
		perm := rand.New(rand.NewSource(int64(run))).Perm(n)
		pcols := make([][]int32, len(cols))
		for c := range cols {
			pcols[c] = make([]int32, n)
			for i, p := range perm {
				pcols[c][i] = cols[c][p]
			}
		}
		res, err := GTest(&matrix{cols: pcols, cards: cards}, 0, 1, []int{2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Stat) != math.Float64bits(ref.Stat) ||
			math.Float64bits(res.P) != math.Float64bits(ref.P) {
			t.Fatalf("permutation %d changed the statistic bits", run)
		}
	}
}
