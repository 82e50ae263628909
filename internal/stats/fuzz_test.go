package stats

import (
	"math"
	"math/rand"
	"testing"
)

// packedMatrix is a binary matrix that also exposes its columns packed,
// so GTest takes the popcount path over it. Bits past N are set to
// garbage: the popcount path must mask the tail word.
type packedMatrix struct {
	*matrix
	bits [][]uint64
}

func (p *packedMatrix) Bits(i int) []uint64 { return p.bits[i] }

func pack(m *matrix) *packedMatrix {
	n := m.N()
	p := &packedMatrix{matrix: m, bits: make([][]uint64, len(m.cols))}
	for c, col := range m.cols {
		words := make([]uint64, (n+63)/64)
		for r, v := range col {
			words[r>>6] |= uint64(v) << (r & 63)
		}
		if tail := n % 64; tail != 0 {
			words[len(words)-1] |= ^uint64(0) << tail
		}
		p.bits[c] = words
	}
	return p
}

// wideMatrix declares the variables in wide with a cardinality past the
// flat cap, which puts any test conditioning on them in the map layout.
// Their codes stay 0/1, so the non-empty strata and their order are those
// of the narrow declaration.
type wideMatrix struct {
	*matrix
	wide map[int]bool
}

func (w *wideMatrix) Card(i int) int {
	if w.wide[i] {
		return flatCap
	}
	return w.matrix.Card(i)
}

// binaryMatrix draws nv binary columns of n rows. Each column is either a
// Bernoulli draw or a noisy copy of an earlier column, so tests see both
// dependence and independence.
func binaryMatrix(rng *rand.Rand, n, nv int) *matrix {
	m := &matrix{cols: make([][]int32, nv), cards: make([]int, nv)}
	for c := range m.cols {
		m.cards[c] = 2
		col := make([]int32, n)
		q, noise := rng.Float64(), rng.Float64()*0.5
		src := -1
		if c > 0 && rng.Intn(2) == 0 {
			src = rng.Intn(c)
		}
		for r := range col {
			switch {
			case src >= 0 && rng.Float64() >= noise:
				col[r] = m.cols[src][r]
			case rng.Float64() < q:
				col[r] = 1
			}
		}
		m.cols[c] = col
	}
	return m
}

func sameResult(a, b TestResult, errA, errB error) bool {
	if (errA == nil) != (errB == nil) || errA != nil && errA.Error() != errB.Error() {
		return false
	}
	return math.Float64bits(a.Stat) == math.Float64bits(b.Stat) &&
		math.Float64bits(a.P) == math.Float64bits(b.P) &&
		a.Dof == b.Dof && a.Reliant == b.Reliant
}

// FuzzCountLayouts: the three ways GTest counts a binary matrix — popcount
// over packed words, the flat row loop and the map row loop — must give
// bitwise-equal results, errors included, for any x, y and z (|z| ≤ 3,
// invalid indices included).
func FuzzCountLayouts(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(5), int8(0), int8(1), []byte{2, 3, 4})
	f.Add(int64(2), uint16(63), uint8(4), int8(1), int8(3), []byte{0})
	f.Add(int64(3), uint16(64), uint8(3), int8(2), int8(0), []byte{})
	f.Add(int64(4), uint16(1), uint8(2), int8(0), int8(1), []byte{})
	f.Add(int64(5), uint16(129), uint8(6), int8(0), int8(0), []byte{1})
	f.Add(int64(6), uint16(200), uint8(5), int8(1), int8(2), []byte{1, 3})
	f.Add(int64(7), uint16(90), uint8(5), int8(-1), int8(9), []byte{7, 0})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, nv uint8, x, y int8, zb []byte) {
		rng := rand.New(rand.NewSource(seed))
		vars := 2 + int(nv%7)
		m := binaryMatrix(rng, 1+int(n%400), vars)
		// Indices range over [-2, vars+1], so some are out of range.
		idx := func(b int8) int { return int(uint8(b))%(vars+4) - 2 }
		var z []int
		wide := map[int]bool{}
		for _, b := range zb[:min(len(zb), 3)] {
			z = append(z, idx(int8(b)))
			wide[z[len(z)-1]] = true
		}
		xi, yi := idx(x), idx(y)
		want, werr := GTest(m, xi, yi, z)
		got, gerr := GTest(pack(m), xi, yi, z)
		if !sameResult(got, want, gerr, werr) {
			t.Fatalf("packed %+v (%v), flat rows %+v (%v)", got, gerr, want, werr)
		}
		got, gerr = GTest(&wideMatrix{matrix: m, wide: wide}, xi, yi, z)
		if !sameResult(got, want, gerr, werr) {
			t.Fatalf("map rows %+v (%v), flat rows %+v (%v)", got, gerr, want, werr)
		}
	})
}

// TestCountLayoutsTaken pins that FuzzCountLayouts' three views reach the
// three counting paths it means to compare.
func TestCountLayoutsTaken(t *testing.T) {
	m := binaryMatrix(rand.New(rand.NewSource(1)), 100, 5)
	z := []int{2, 3, 4}
	s, err := NewStrata(m, 0, 1, z)
	if err != nil || s.flat == nil {
		t.Fatalf("binary test not flat: %v", err)
	}
	if !s.countPacked(pack(m), 0, 1, z) {
		t.Fatal("packed view declined the popcount path")
	}
	if s.countPacked(&packedMatrix{matrix: m, bits: make([][]uint64, 5)}, 0, 1, z) {
		t.Fatal("popcount path taken without packed columns")
	}
	w := &wideMatrix{matrix: m, wide: map[int]bool{4: true}}
	if s, err = NewStrata(w, 0, 1, z); err != nil || s.flat != nil {
		t.Fatalf("wide test not in the map layout: %v", err)
	}
}

func TestFlatSizeCap(t *testing.T) {
	for _, tc := range []struct {
		cx, cy int
		radix  []int64
		want   int
	}{
		{3, 3, nil, 9},
		{3, 3, []int64{3, 3, 3}, 243},
		{256, 256, nil, flatCap},
		{256, 257, nil, 0},
		{2, 2, []int64{1 << 14}, flatCap},
		{2, 2, []int64{1<<14 + 1}, 0},
		{3, 3, []int64{math.MaxInt64, math.MaxInt64}, 0},
		{math.MaxInt32, math.MaxInt32, []int64{3}, 0},
	} {
		if got := flatSize(tc.cx, tc.cy, tc.radix); got != tc.want {
			t.Errorf("flatSize(%d, %d, %v) = %d, want %d", tc.cx, tc.cy, tc.radix, got, tc.want)
		}
	}
}
