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
	"errors"
	"fmt"

	"github.com/guardrail-db/guardrail/internal/stats"
)

// Table is a sparse joint contingency table: a multiset of full row
// assignments with integer multiplicities. The zero value is not usable;
// construct with New.
//
// Cells live in flat, pointer-free arrays: cell c's assignment is
// codes[c*w:(c+1)*w] (w the variable count) and its mass is mass[c]. An
// open-addressing index over the cells finds an assignment by value, so
// adding a row allocates nothing once the arrays have grown to the
// table's size. A cell that Subtract empties keeps its place with mass 0
// (a later Add of the same assignment revives it) until empty cells
// outnumber live ones, when the arrays are compacted.
type Table struct {
	// cards holds the declared cardinality of each variable. Cells do not
	// depend on cards, so tables over the same variables but grown
	// dictionaries still merge; Merge takes the elementwise max.
	cards []int
	n     int64
	codes []int32
	mass  []int64
	// slots indexes the cells by assignment: cell index + 1, 0 when free.
	// Its length is a power of two at least twice the cell count.
	slots []int32
	live  int // cells with mass > 0
}

// New builds an empty table over variables with the given cardinalities.
func New(cards []int) *Table {
	return &Table{cards: append([]int(nil), cards...)}
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
	t := &Table{}
	t.SetRows(d, lo, hi)
	return t
}

// SetRows replaces t's contents with what FromRows(d, lo, hi) would
// build, reusing t's arrays: a driver that recycles its expired windows
// builds each new one without allocating.
func (t *Table) SetRows(d stats.Data, lo, hi int) {
	nv := d.NumVars()
	t.cards = t.cards[:0]
	for i := 0; i < nv; i++ {
		t.cards = append(t.cards, d.Card(i))
	}
	t.n, t.live = 0, 0
	t.codes, t.mass = t.codes[:0], t.mass[:0]
	clear(t.slots)
	var buf [16]int32 // rows of up to 16 variables stay off the heap
	row := buf[:0]
	if nv > len(buf) {
		row = make([]int32, 0, nv)
	}
	row = row[:nv]
	for r := lo; r < hi; r++ {
		for i := range row {
			row[i] = d.Codes(i)[r]
		}
		t.Add(row)
	}
}

// NumVars reports the number of variables.
func (t *Table) NumVars() int { return len(t.cards) }

// N reports the total observation count behind the table.
func (t *Table) N() int { return int(t.n) }

// Card reports the declared cardinality of variable i.
func (t *Table) Card(i int) int { return t.cards[i] }

// Cells reports the number of distinct row assignments with mass.
func (t *Table) Cells() int { return t.live }

// row returns cell c's assignment.
func (t *Table) row(c int) []int32 {
	w := len(t.cards)
	return t.codes[c*w : c*w+w]
}

// hashRow mixes a row assignment into a slot hash.
func hashRow(row []int32) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, c := range row {
		h = (h ^ uint64(uint32(c))) * 0xff51afd7ed558ccd
		h ^= h >> 29
	}
	return h
}

// find returns the cell holding row, or -1 and the free slot where it
// would go.
func (t *Table) find(row []int32) (cell, slot int) {
	mask := len(t.slots) - 1
	for i := int(hashRow(row)) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1, i
		}
		if c := int(s - 1); equalRow(t.row(c), row) {
			return c, i
		}
	}
}

func equalRow(a, b []int32) bool {
	for i, c := range a {
		if b[i] != c {
			return false
		}
	}
	return true
}

// massOf reports the mass of row's cell, 0 when it has none.
func (t *Table) massOf(row []int32) int64 {
	if len(t.slots) == 0 {
		return 0
	}
	if c, _ := t.find(row); c >= 0 {
		return t.mass[c]
	}
	return 0
}

// cellOf returns row's cell, appending an empty one when row has none.
func (t *Table) cellOf(row []int32) int {
	if 2*(len(t.mass)+1) > len(t.slots) {
		t.rebuild()
	}
	c, slot := t.find(row)
	if c < 0 {
		c = len(t.mass)
		t.codes = append(t.codes, row...)
		t.mass = append(t.mass, 0)
		t.slots[slot] = int32(c + 1)
	}
	return c
}

// rebuild drops the cells without mass, keeping the rest in order, and
// re-indexes them into a slot table sized for twice as many.
func (t *Table) rebuild() {
	w, kept := len(t.cards), 0
	for c, m := range t.mass {
		if m == 0 {
			continue
		}
		copy(t.codes[kept*w:], t.row(c))
		t.mass[kept] = m
		kept++
	}
	t.codes, t.mass = t.codes[:kept*w], t.mass[:kept]
	size := 8
	for size < 4*(kept+1) {
		size *= 2
	}
	if len(t.slots) == size {
		clear(t.slots)
	} else {
		t.slots = make([]int32, size)
	}
	for c := range t.mass {
		_, slot := t.find(t.row(c))
		t.slots[slot] = int32(c + 1)
	}
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
	t.add(row, k)
}

// add moves k (of either sign) into row's cell; the cell must not go
// negative.
func (t *Table) add(row []int32, k int64) {
	c := t.cellOf(row)
	was := t.mass[c]
	t.mass[c] += k
	switch {
	case was == 0:
		t.live++
	case t.mass[c] == 0:
		t.live--
	}
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
	for c, m := range o.mass {
		if m > 0 {
			t.add(o.row(c), m)
		}
	}
	return nil
}

// Subtract removes every cell of o from t — the inverse of Merge, used
// to expire a window from a sliding aggregate. It fails (leaving t
// unmodified: the check runs before any mutation) when o has mass t does
// not, which means o was never merged in. Cardinalities are not shrunk:
// a dictionary never forgets codes, so neither does the table.
func (t *Table) Subtract(o *Table) error {
	if len(o.cards) != len(t.cards) {
		return fmt.Errorf("incr: subtract %d vars from %d", len(o.cards), len(t.cards))
	}
	for c, m := range o.mass {
		if m > 0 && t.massOf(o.row(c)) < m {
			return errors.New("incr: subtracting a table that was never merged (cell underflow)")
		}
	}
	for c, m := range o.mass {
		if m > 0 {
			t.add(o.row(c), -m)
		}
	}
	if dead := len(t.mass) - t.live; dead > 64 && dead > t.live {
		t.rebuild()
	}
	return nil
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	return &Table{
		cards: append([]int(nil), t.cards...),
		n:     t.n,
		codes: append([]int32(nil), t.codes...),
		mass:  append([]int64(nil), t.mass...),
		slots: append([]int32(nil), t.slots...),
		live:  t.live,
	}
}

// Equal reports whether two tables carry identical statistics: same
// variable count, cardinalities, and cell masses.
func (t *Table) Equal(o *Table) bool {
	if len(t.cards) != len(o.cards) || t.n != o.n || t.live != o.live {
		return false
	}
	for i, c := range t.cards {
		if o.cards[i] != c {
			return false
		}
	}
	for c, m := range t.mass {
		if m > 0 && o.massOf(t.row(c)) != m {
			return false
		}
	}
	return true
}

// marginal fills out with variable i's category counts: one slot per
// category below len(out)-1 (at least the declared cardinality), and the
// final slot holding the missing-value mass, mirroring the extra slot the
// CI tests reserve. Drift detection lays both sides out over the larger
// of their cardinalities, so each slot holds the same category on both.
func (t *Table) marginal(i int, out []int64) {
	clear(out)
	w, missing := len(t.cards), len(out)-1
	for c, m := range t.mass {
		code := int(t.codes[c*w+i])
		if code < 0 {
			code = missing
		}
		out[code] += m
	}
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
	// Integer accumulation commutes, so the cell order does not reach the
	// strata a row scan builds.
	for c, m := range t.mass {
		if m == 0 {
			continue
		}
		row := t.row(c)
		var key int64
		for i, zi := range z {
			key = s.Fold(key, i, row[zi])
		}
		if err := s.AddN(key, row[x], row[y], m); err != nil {
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
