package stats

import (
	"errors"
	"fmt"
	"math"
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
func GTest(d Data, x, y int, z []int) (TestResult, error) {
	s, err := NewStrata(d, x, y, z)
	if err != nil {
		return TestResult{}, err
	}
	n := d.N()
	xcol, ycol := d.Codes(x), d.Codes(y)
	zcols := make([][]int32, len(z))
	for i, zi := range z {
		zcols[i] = d.Codes(zi)
	}
	for r := 0; r < n; r++ {
		var key int64
		for i, col := range zcols {
			key = s.Fold(key, i, col[r])
		}
		s.table(key)[s.cell(xcol[r], ycol[r])]++
	}
	s.n = n
	return s.Result()
}

// Strata is the contingency accumulator behind every G² test: one cx×cy
// count table per stratum of the conditioning set, keyed by the
// mixed-radix code of the stratum's assignment, with one extra slot per
// dimension for the missing category. GTest fills it from row columns,
// internal/stats/incr from merged cells with multiplicities (and its
// drift check as a single stratum), and Result is the one routine that
// turns the counts into a TestResult, so every caller that fills the
// same counts gets the same bits.
type Strata struct {
	cx, cy int     // table dimensions, missing slot included
	radix  []int64 // per conditioning variable: its cardinality + 1
	n      int
	tabs   map[int64][]int32
}

// NewStrata validates a test of x against y given z over s's variables
// and returns an empty accumulator for it. x and y must differ, and z
// must exclude both; every index must be a variable of s.
func NewStrata(s Shape, x, y int, z []int) (*Strata, error) {
	nv := s.NumVars()
	if x == y {
		return nil, errors.New("stats: G² test with x == y")
	}
	if x < 0 || x >= nv || y < 0 || y >= nv {
		return nil, fmt.Errorf("stats: variable out of range (%d, %d of %d)", x, y, nv)
	}
	radix := make([]int64, len(z))
	for i, zi := range z {
		if zi == x || zi == y {
			return nil, fmt.Errorf("stats: conditioning set contains tested variable %d", zi)
		}
		if zi < 0 || zi >= nv {
			return nil, fmt.Errorf("stats: conditioning variable %d out of range", zi)
		}
		radix[i] = int64(s.Card(zi) + 1)
	}
	return &Strata{cx: s.Card(x) + 1, cy: s.Card(y) + 1, radix: radix, tabs: map[int64][]int32{}}, nil
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
// creating it empty. GTest's row loop increments it in place with no
// per-row check or call (table, cell and Fold inline), which keeps the
// loop as tight as a hand-written one.
func (s *Strata) table(key int64) []int32 {
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
	g, dof := s.g()
	if dof <= 0 {
		return TestResult{P: 1}, nil
	}
	// Reliability heuristic for sparse tables: n >= 5·cells/4 in integer
	// arithmetic, i.e. at least 1.25 observations per cell, where cells
	// counts every slot (missing included) of every non-empty stratum.
	cells := len(s.tabs) * s.cx * s.cy
	reliant := s.n >= 5*cells/4
	p, err := ChiSquareSurvival(g, dof)
	if err != nil {
		return TestResult{Stat: g, Dof: dof}, err
	}
	return TestResult{Stat: g, Dof: dof, P: p, Reliant: reliant}, nil
}

// g accumulates the G² statistic and degrees of freedom across strata,
// using per-stratum margins for expected counts. Rows/columns that are
// empty within a stratum do not contribute degrees of freedom there.
//
// Strata are visited in ascending key order. Floating-point addition is
// not associative, so summing G² in Go's randomized map order would let
// the last bits of the statistic — and p-values sitting near the alpha
// threshold — differ run to run, breaking the synthesizer's pinned
// determinism. The sort makes the accumulation order, and therefore every
// bit of the result, a function of the counts alone.
func (s *Strata) g() (float64, int) {
	cx, cy := s.cx, s.cy
	keys := make([]int64, 0, len(s.tabs))
	for k := range s.tabs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var g float64
	dof := 0
	rowMarg := make([]float64, cx)
	colMarg := make([]float64, cy)
	for _, key := range keys {
		tab := s.tabs[key]
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
			continue
		}
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
	return g, dof
}
