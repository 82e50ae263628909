package stats

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Shape is what a test needs to know about its variables: how many there
// are and each one's cardinality.
type Shape interface {
	// NumVars reports the number of variables.
	NumVars() int
	// Card reports the cardinality (number of categories) of variable i.
	Card(i int) int
}

// Data exposes a discrete dataset to the independence tests: a fixed number
// of variables, each a column of small non-negative integer codes (negative
// codes are treated as a distinct "missing" category).
type Data interface {
	Shape
	// N reports the number of rows.
	N() int
	// Codes returns variable i's column; implementations may return an
	// internal slice that the caller must not mutate.
	Codes(i int) []int32
}

// TestResult holds an independence-test outcome.
type TestResult struct {
	Stat    float64 // G² statistic
	Dof     int     // degrees of freedom
	P       float64 // p-value
	Reliant bool    // false when the sample is too small for the table size
}

// Independent reports whether the test failed to reject independence at
// level alpha. Unreliable tests conservatively report independence,
// following the standard PC-algorithm heuristic for sparse tables.
func (t TestResult) Independent(alpha float64) bool {
	if !t.Reliant {
		return true
	}
	return t.P > alpha
}

// catOf maps a raw code (possibly the missing sentinel -1) into a dense
// category index in [0, card]: missing occupies the final extra slot.
func catOf(code int32, card int) int {
	if code < 0 {
		return card
	}
	return int(code)
}

// CITester runs conditional-independence tests over some representation
// of a dataset's sufficient statistics. Data-backed callers get one via
// Tester; internal/stats/incr implements it directly over merged
// windowed contingency tables, which is what lets PC re-learn from a
// sliding window without rescanning rows.
type CITester interface {
	Shape
	// N reports the number of observations behind the statistics.
	N() int
	// Test computes the G² independence test of x and y given z.
	Test(x, y int, z []int) (TestResult, error)
}

// Tester adapts raw column data to CITester: each Test is a from-scratch
// GTest over the columns.
func Tester(d Data) CITester { return columnTester{d} }

type columnTester struct{ Data }

func (t columnTester) Test(x, y int, z []int) (TestResult, error) {
	return GTest(t.Data, x, y, z)
}

// GTest computes the G² (log-likelihood ratio) test of independence between
// variables x and y conditioned on the variables in z, over the given data.
//
// The statistic is G = 2 Σ O·ln(O/E) accumulated within each stratum of z,
// with dof = (|x|-1)(|y|-1)·Π|z_k| (empty strata excluded by using the
// per-stratum observed margins). This is the test Guardrail's sketch
// learner uses to decide local non-triviality and PC edge deletion.
//
// When d is Packed and x, y and every z are packed binary variables, the
// counts come from popcounts over the packed words instead of a row scan;
// both fill the same cells, so the result is bit-identical.
func GTest(d Data, x, y int, z []int) (TestResult, error) {
	s, err := NewStrata(d, x, y, z)
	if err != nil {
		return TestResult{}, err
	}
	if p, ok := d.(Packed); ok && s.countPacked(p, x, y, z) {
		return s.Result()
	}
	n := d.N()
	xcol, ycol := d.Codes(x), d.Codes(y)
	zcols := make([][]int32, len(z))
	for i, zi := range z {
		zcols[i] = d.Codes(zi)
	}
	if s.flat != nil {
		cxy := int64(s.cx * s.cy)
		for r := 0; r < n; r++ {
			var key int64
			for i, col := range zcols {
				key = s.Fold(key, i, col[r])
			}
			s.flat[key*cxy+int64(s.cell(xcol[r], ycol[r]))]++
		}
	} else {
		for r := 0; r < n; r++ {
			var key int64
			for i, col := range zcols {
				key = s.Fold(key, i, col[r])
			}
			s.table(key)[s.cell(xcol[r], ycol[r])]++
		}
	}
	s.n = n
	return s.Result()
}

// Packed is implemented by Data that also stores binary variables
// bit-packed, 64 rows to a word: row r is bit r%64 of word r/64, and the
// bit is the row's code, so a packed variable has only codes 0 and 1.
type Packed interface {
	Data
	// Bits returns variable i's packed column of (N()+63)/64 words, or
	// nil when the variable is not stored packed. Bits past N() are
	// ignored. Implementations may return an internal slice that the
	// caller must not mutate.
	Bits(i int) []uint64
}

// countPacked fills the flat strata of a test over packed binary
// variables by popcount and reports whether it did; it declines (leaving
// s untouched) in the map layout or when any variable is not packed. Per
// word it splits the valid rows into the 2^|z| stratum masks, z[0] the
// most significant bit of the mask index as it is the most significant
// digit of Fold's key, and takes four popcounts per stratum: rows,
// x = 1, y = 1 and both. Those determine the stratum's four cells,
// written where a row scan would have counted them. The flat layout
// holds at most 3^8·9 cells for binary z, so there are at most 256 masks.
func (s *Strata) countPacked(p Packed, x, y int, z []int) bool {
	if s.flat == nil {
		return false
	}
	cols := make([][]uint64, 2+len(z))
	for i, v := range append([]int{x, y}, z...) {
		if cols[i] = p.Bits(v); cols[i] == nil {
			return false
		}
	}
	n := p.N()
	nw := (n + 63) / 64
	k := len(z)
	masks := make([]uint64, 1<<k)
	cnt := make([][4]int64, 1<<k) // per stratum: rows, x, y, x∧y
	for w := 0; w < nw; w++ {
		masks[0] = ^uint64(0)
		if tail := n % 64; w == nw-1 && tail != 0 {
			masks[0] = 1<<tail - 1
		}
		for i := 0; i < k; i++ {
			zw := cols[2+i][w]
			for a := 1<<i - 1; a >= 0; a-- {
				masks[2*a+1] = masks[a] & zw
				masks[2*a] = masks[a] &^ zw
			}
		}
		xw, yw := cols[0][w], cols[1][w]
		xy := xw & yw
		for a, m := range masks {
			c := &cnt[a]
			c[0] += int64(bits.OnesCount64(m))
			c[1] += int64(bits.OnesCount64(m & xw))
			c[2] += int64(bits.OnesCount64(m & yw))
			c[3] += int64(bits.OnesCount64(m & xy))
		}
	}
	for a, c := range cnt {
		var key int64
		for i := 0; i < k; i++ {
			key = s.Fold(key, i, int32(a>>(k-1-i)&1))
		}
		tab := s.table(key)
		tab[s.cell(0, 0)] = int32(c[0] - c[1] - c[2] + c[3])
		tab[s.cell(0, 1)] = int32(c[2] - c[3])
		tab[s.cell(1, 0)] = int32(c[1] - c[3])
		tab[s.cell(1, 1)] = int32(c[3])
	}
	s.n = n
	return true
}

// Strata is the contingency accumulator behind every G² test: one cx×cy
// count table per stratum of the conditioning set, keyed by the
// mixed-radix code of the stratum's assignment, with one extra slot per
// dimension for the missing category. GTest fills it from row columns or
// packed words, internal/stats/incr from merged cells with multiplicities
// (and its drift check as a single stratum), and Result is the one
// routine that turns the counts into a TestResult, so every caller that
// fills the same counts gets the same bits.
//
// The tables live in one of two layouts. When the whole stratum space
// times cx·cy fits in flatCap cells, they sit in one flat slice, stratum
// key k's table at k·cx·cy; otherwise in a map holding only the strata
// that were touched. Both are read in ascending key order and empty
// strata contribute nothing, so the layout never changes a bit of the
// result.
type Strata struct {
	cx, cy int     // table dimensions, missing slot included
	radix  []int64 // per conditioning variable: its cardinality + 1
	n      int
	flat   []int32           // flat layout; nil for the map layout
	tabs   map[int64][]int32 // map layout
}

// flatCap is the most cells a flat layout may hold.
const flatCap = 1 << 16

// NewStrata validates a test of x against y given z over s's variables
// and returns an empty accumulator for it. x and y must differ, and z
// must exclude both; every index must be a variable of s.
func NewStrata(s Shape, x, y int, z []int) (*Strata, error) {
	st := &Strata{}
	if err := st.Reset(s, x, y, z); err != nil {
		return nil, err
	}
	return st, nil
}

// Reset empties st and lays it out for a test of x against y given z
// over s's variables, as NewStrata does, reusing st's arrays where they
// are large enough: one Strata can run a sequence of tests. On error st
// is left unusable until the next successful Reset.
func (st *Strata) Reset(s Shape, x, y int, z []int) error {
	nv := s.NumVars()
	if x == y {
		return errors.New("stats: G² test with x == y")
	}
	if x < 0 || x >= nv || y < 0 || y >= nv {
		return fmt.Errorf("stats: variable out of range (%d, %d of %d)", x, y, nv)
	}
	if cap(st.radix) < len(z) {
		st.radix = make([]int64, 0, len(z))
	}
	st.radix = st.radix[:0]
	for _, zi := range z {
		if zi == x || zi == y {
			return fmt.Errorf("stats: conditioning set contains tested variable %d", zi)
		}
		if zi < 0 || zi >= nv {
			return fmt.Errorf("stats: conditioning variable %d out of range", zi)
		}
		st.radix = append(st.radix, int64(s.Card(zi)+1))
	}
	st.cx, st.cy, st.n = s.Card(x)+1, s.Card(y)+1, 0
	if size := flatSize(st.cx, st.cy, st.radix); size > 0 {
		if cap(st.flat) >= size {
			st.flat = st.flat[:size]
			clear(st.flat)
		} else {
			st.flat = make([]int32, size)
		}
		st.tabs = nil
	} else {
		st.flat, st.tabs = nil, map[int64][]int32{}
	}
	return nil
}

// flatSize returns cx·cy·Π radix, or 0 when the product is past flatCap.
// It stops multiplying at the first factor that would pass the cap, so
// the product never overflows.
func flatSize(cx, cy int, radix []int64) int {
	size := int64(1)
	for _, d := range append([]int64{int64(cx), int64(cy)}, radix...) {
		if d > flatCap/size {
			return 0
		}
		size *= d
	}
	return int(size)
}

// Fold extends a stratum key with the code of conditioning variable z[i].
// An observation's key starts at 0 and folds z's codes in order: a
// mixed-radix number whose digit i has base Card(z[i])+1.
func (s *Strata) Fold(key int64, i int, code int32) int64 {
	return key*s.radix[i] + int64(catOf(code, int(s.radix[i])-1))
}

// cell returns the index of the code pair (xc, yc) in a stratum table.
func (s *Strata) cell(xc, yc int32) int {
	return catOf(xc, s.cx-1)*s.cy + catOf(yc, s.cy-1)
}

// table returns the count table of the stratum with the given key,
// creating it empty in the map layout. GTest's row loops index the flat
// slice, or call this for the map layout, with no other per-row check or
// call (table, cell and Fold inline).
func (s *Strata) table(key int64) []int32 {
	if s.flat != nil {
		cxy := int64(s.cx * s.cy)
		return s.flat[key*cxy : (key+1)*cxy]
	}
	tab := s.tabs[key]
	if tab == nil {
		tab = make([]int32, s.cx*s.cy)
		s.tabs[key] = tab
	}
	return tab
}

// AddN adds k observations with codes xc, yc to the stratum with the
// given key. It fails, leaving the counts unusable, when the cell would
// overflow the int32 tables.
func (s *Strata) AddN(key int64, xc, yc int32, k int64) error {
	tab := s.table(key)
	idx := s.cell(xc, yc)
	if int64(tab[idx])+k > math.MaxInt32 {
		return errors.New("stats: cell count overflows the test's int32 tables")
	}
	tab[idx] += int32(k)
	s.n += int(k)
	return nil
}

// Result finishes the G² test over the accumulated counts. An empty
// sample, or a table with no degrees of freedom, reports P = 1 and is
// unreliable. When the chi-square tail fails to converge the statistic
// and dof are still reported alongside the error.
func (s *Strata) Result() (TestResult, error) {
	if s.n == 0 {
		return TestResult{P: 1}, nil
	}
	g, dof, strata := s.g()
	if dof <= 0 {
		return TestResult{P: 1}, nil
	}
	// Reliability heuristic for sparse tables: n >= 5·cells/4 in integer
	// arithmetic, i.e. at least 1.25 observations per cell, where cells
	// counts every slot (missing included) of every non-empty stratum.
	cells := strata * s.cx * s.cy
	reliant := s.n >= 5*cells/4
	p, err := ChiSquareSurvival(g, dof)
	if err != nil {
		return TestResult{Stat: g, Dof: dof}, err
	}
	return TestResult{Stat: g, Dof: dof, P: p, Reliant: reliant}, nil
}

// g accumulates the G² statistic and degrees of freedom across strata,
// using per-stratum margins for expected counts, and counts the non-empty
// strata. Rows/columns that are empty within a stratum do not contribute
// degrees of freedom there.
//
// Strata are visited in ascending key order in both layouts.
// Floating-point addition is not associative, so summing G² in Go's
// randomized map order would let the last bits of the statistic — and
// p-values sitting near the alpha threshold — differ run to run, breaking
// the synthesizer's pinned determinism. The fixed order makes the
// accumulation order, and therefore every bit of the result, a function
// of the counts alone.
func (s *Strata) g() (g float64, dof, strata int) {
	cx, cy := s.cx, s.cy
	marg := make([]float64, cx+cy)
	rowMarg, colMarg := marg[:cx], marg[cx:]
	visit := func(tab []int32) {
		for i := range rowMarg {
			rowMarg[i] = 0
		}
		for j := range colMarg {
			colMarg[j] = 0
		}
		var total float64
		for i := 0; i < cx; i++ {
			for j := 0; j < cy; j++ {
				v := float64(tab[i*cy+j])
				rowMarg[i] += v
				colMarg[j] += v
				total += v
			}
		}
		if total == 0 {
			return
		}
		strata++
		nzRows, nzCols := 0, 0
		for i := 0; i < cx; i++ {
			if rowMarg[i] > 0 {
				nzRows++
			}
		}
		for j := 0; j < cy; j++ {
			if colMarg[j] > 0 {
				nzCols++
			}
		}
		if nzRows > 1 && nzCols > 1 {
			dof += (nzRows - 1) * (nzCols - 1)
		}
		for i := 0; i < cx; i++ {
			if rowMarg[i] == 0 {
				continue
			}
			for j := 0; j < cy; j++ {
				o := float64(tab[i*cy+j])
				if o == 0 {
					continue
				}
				e := rowMarg[i] * colMarg[j] / total
				g += 2 * o * math.Log(o/e)
			}
		}
	}
	if s.flat != nil {
		for off := 0; off < len(s.flat); off += cx * cy {
			visit(s.flat[off : off+cx*cy])
		}
		return g, dof, strata
	}
	keys := make([]int64, 0, len(s.tabs))
	for k := range s.tabs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		visit(s.tabs[key])
	}
	return g, dof, strata
}
