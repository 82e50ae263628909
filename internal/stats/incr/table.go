// Package incr makes PC's sufficient statistics first-class mergeable
// values. A Table is a sparse joint contingency table over all variables
// of a dataset: adding a row, merging two tables, and subtracting one
// table from another are all integer cell-count arithmetic, which
// commutes and associates exactly — so any partition of the rows yields
// bit-identical statistics to a single batch pass. That algebra is what
// the windowed/sliding view (Ring), drift detection, and the scale-out
// story (partition rows → merge tables → synthesize once) are built on.
//
// A Table implements stats.CITester by adding its cells to the same
// stats.Strata accumulator that stats.GTest fills from raw columns and
// finishing through the same routine, so PC run over merged tables
// produces the same CPDAG as a from-scratch run over the equivalent
// concatenated rows.
package incr

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/guardrail-db/guardrail/internal/stats"
)

// Table is a sparse joint contingency table: a multiset of full row
// assignments with integer multiplicities. The zero value is not usable;
// construct with New.
type Table struct {
	// cards holds the declared cardinality of each variable. Cell keys do
	// not depend on cards, so tables over the same variables but grown
	// dictionaries still merge; Merge takes the elementwise max.
	cards []int
	n     int64
	cells map[string]int64 // packed row codes -> count, never <= 0
}

// New builds an empty table over variables with the given cardinalities.
func New(cards []int) *Table {
	return &Table{
		cards: append([]int(nil), cards...),
		cells: map[string]int64{},
	}
}

// CardsOf reads the declared cardinalities from any CI tester.
func CardsOf(t stats.CITester) []int {
	cards := make([]int, t.NumVars())
	for i := range cards {
		cards[i] = t.Card(i)
	}
	return cards
}

// FromData accumulates every row of d into a fresh table.
func FromData(d stats.Data) *Table {
	return FromRows(d, 0, d.N())
}

// FromRows accumulates rows [lo, hi) of d into a fresh table, declared
// with d's current cardinalities. This is how per-window tables are built
// from a growing relation: each window snapshot carries the dictionary
// cardinalities as of its creation, and merging windows takes the max,
// so the aggregate over the newest windows matches the live dictionary.
func FromRows(d stats.Data, lo, hi int) *Table {
	nv := d.NumVars()
	cards := make([]int, nv)
	cols := make([][]int32, nv)
	for i := 0; i < nv; i++ {
		cards[i] = d.Card(i)
		cols[i] = d.Codes(i)
	}
	t := New(cards)
	row := make([]int32, nv)
	for r := lo; r < hi; r++ {
		for i := 0; i < nv; i++ {
			row[i] = cols[i][r]
		}
		t.Add(row)
	}
	return t
}

// NumVars reports the number of variables.
func (t *Table) NumVars() int { return len(t.cards) }

// N reports the total observation count behind the table.
func (t *Table) N() int { return int(t.n) }

// Card reports the declared cardinality of variable i.
func (t *Table) Card(i int) int { return t.cards[i] }

// Cells reports the number of distinct row assignments with mass.
func (t *Table) Cells() int { return len(t.cells) }

// keyOf packs a full row assignment into a card-independent cell key:
// four little-endian bytes per code. A fixed-width binary key (rather
// than a mixed-radix integer) cannot overflow however many variables or
// categories the dataset has, and sorts variables-major for the
// deterministic serialization order.
func keyOf(row []int32) string {
	buf := make([]byte, 4*len(row))
	for i, c := range row {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(c))
	}
	return string(buf)
}

// codeAt unpacks variable i's code from a cell key.
func codeAt(key string, i int) int32 {
	return int32(binary.LittleEndian.Uint32([]byte(key[4*i : 4*i+4])))
}

// Add accumulates one row assignment (codes per variable, -1 for
// missing). Codes beyond the declared cardinality grow it, so a table
// stays valid while the underlying dictionary interns new values.
func (t *Table) Add(row []int32) { t.AddN(row, 1) }

// AddN accumulates a row assignment with multiplicity k (k > 0).
func (t *Table) AddN(row []int32, k int64) {
	if len(row) != len(t.cards) {
		panic(fmt.Sprintf("incr: AddN row width %d, table has %d vars", len(row), len(t.cards)))
	}
	if k <= 0 {
		panic("incr: AddN with non-positive multiplicity")
	}
	for i, c := range row {
		if int(c) >= t.cards[i] {
			t.cards[i] = int(c) + 1
		}
	}
	t.cells[keyOf(row)] += k
	t.n += k
}

// Merge adds every cell of o into t. Tables must agree on variable
// count; cardinalities take the elementwise max. o is unchanged.
func (t *Table) Merge(o *Table) error {
	if len(o.cards) != len(t.cards) {
		return fmt.Errorf("incr: merge %d vars into %d", len(o.cards), len(t.cards))
	}
	for i, c := range o.cards {
		if c > t.cards[i] {
			t.cards[i] = c
		}
	}
	for k, v := range o.cells {
		t.cells[k] += v
	}
	t.n += o.n
	return nil
}

// Subtract removes every cell of o from t — the inverse of Merge, used
// to expire a window from a sliding aggregate. It fails (leaving t
// partially modified only in never-observable ways: the check runs
// before any mutation) when o has mass t does not, which means o was
// never merged in. Cardinalities are not shrunk: a dictionary never
// forgets codes, so neither does the table.
func (t *Table) Subtract(o *Table) error {
	if len(o.cards) != len(t.cards) {
		return fmt.Errorf("incr: subtract %d vars from %d", len(o.cards), len(t.cards))
	}
	for k, v := range o.cells {
		if t.cells[k] < v {
			return errors.New("incr: subtracting a table that was never merged (cell underflow)")
		}
	}
	for k, v := range o.cells {
		if rest := t.cells[k] - v; rest == 0 {
			delete(t.cells, k)
		} else {
			t.cells[k] = rest
		}
	}
	t.n -= o.n
	return nil
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	c := &Table{
		cards: append([]int(nil), t.cards...),
		n:     t.n,
		cells: make(map[string]int64, len(t.cells)),
	}
	for k, v := range t.cells {
		c.cells[k] = v
	}
	return c
}

// Equal reports whether two tables carry identical statistics: same
// variable count, cardinalities, and cell masses.
func (t *Table) Equal(o *Table) bool {
	if len(t.cards) != len(o.cards) || t.n != o.n || len(t.cells) != len(o.cells) {
		return false
	}
	for i, c := range t.cards {
		if o.cards[i] != c {
			return false
		}
	}
	for k, v := range t.cells {
		if o.cells[k] != v {
			return false
		}
	}
	return true
}

// Marginal returns variable i's category counts — card+1 slots, the
// final one holding the missing-value mass, mirroring the extra slot the
// CI tests reserve. Drift detection compares these between baseline and
// window.
func (t *Table) Marginal(i int) []int64 {
	card := t.cards[i]
	out := make([]int64, card+1)
	for k, v := range t.cells {
		c := int(codeAt(k, i))
		if c < 0 {
			c = card
		}
		out[c] += v
	}
	return out
}

// Test computes the G² independence test of x and y given z by adding
// every cell, with its multiplicity, to a stats.Strata — the accumulator
// and finisher stats.GTest uses — so the result is bit-identical to a
// from-scratch pass over rows carrying the same joint counts.
func (t *Table) Test(x, y int, z []int) (stats.TestResult, error) {
	s, err := stats.NewStrata(t, x, y, z)
	if err != nil {
		return stats.TestResult{}, err
	}
	// Integer accumulation commutes, so ranging over the cell map in
	// arbitrary order still yields exactly the strata a row scan builds.
	for cell, cnt := range t.cells {
		var key int64
		for i, zi := range z {
			key = s.Fold(key, i, codeAt(cell, zi))
		}
		if err := s.AddN(key, codeAt(cell, x), codeAt(cell, y), cnt); err != nil {
			return stats.TestResult{}, err
		}
	}
	return s.Result()
}

var _ stats.CITester = (*Table)(nil)

// Slice views rows [lo, hi) of d as a stats.Data, sharing d's columns
// and cardinalities. It is the from-scratch counterpart of a windowed
// table built with FromRows over the same range — tests pin that the two
// agree bit-for-bit.
func Slice(d stats.Data, lo, hi int) stats.Data {
	return sliceData{d: d, lo: lo, hi: hi}
}

type sliceData struct {
	d      stats.Data
	lo, hi int
}

func (s sliceData) NumVars() int        { return s.d.NumVars() }
func (s sliceData) N() int              { return s.hi - s.lo }
func (s sliceData) Card(i int) int      { return s.d.Card(i) }
func (s sliceData) Codes(i int) []int32 { return s.d.Codes(i)[s.lo:s.hi] }
