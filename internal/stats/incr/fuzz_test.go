package incr

import (
	"testing"

	"github.com/guardrail-db/guardrail/internal/stats"
)

// codeMatrix is a column-major stats.Data built from fuzz bytes.
type codeMatrix struct {
	cols  [][]int32
	cards []int
	n     int
}

func (m *codeMatrix) NumVars() int        { return len(m.cols) }
func (m *codeMatrix) N() int              { return m.n }
func (m *codeMatrix) Card(i int) int      { return m.cards[i] }
func (m *codeMatrix) Codes(i int) []int32 { return m.cols[i] }

// matrixFrom decodes fuzz bytes into 2–4 variables of cardinality 1–4:
// data[0] picks the variable count, the next bytes the cardinalities,
// and the rest fills rows, each byte a code or the missing value -1.
func matrixFrom(data []byte) *codeMatrix {
	if len(data) == 0 {
		data = []byte{0}
	}
	nv := 2 + int(data[0]%3)
	data = data[1:]
	m := &codeMatrix{cols: make([][]int32, nv), cards: make([]int, nv)}
	for i := range m.cards {
		m.cards[i] = 1
		if i < len(data) {
			m.cards[i] += int(data[i] % 4)
		}
	}
	if len(data) > nv {
		data = data[nv:]
	} else {
		data = nil
	}
	m.n = min(len(data)/nv, 512)
	for i := range m.cols {
		m.cols[i] = make([]int32, m.n)
		for r := 0; r < m.n; r++ {
			m.cols[i][r] = int32(data[r*nv+i]%byte(m.cards[i]+1)) - 1
		}
	}
	return m
}

// FuzzTesterIdentity holds the one-kernel contract: stats.GTest over the
// rows, Test on the table of those rows, and Test on the merge of two
// halves' tables return bit-identical results, errors included, for any
// small code matrix with missing values and any x, y and z — invalid
// ones too.
func FuzzTesterIdentity(f *testing.F) {
	f.Add([]byte{1, 2, 1, 3, 0, 1, 2, 3, 1, 0, 2, 2, 3, 1, 0, 0, 1, 2, 3, 2, 1, 0}, int8(0), int8(1), []byte{2})
	f.Add([]byte{0, 3, 3, 1, 2, 0, 0, 3, 2, 1}, int8(1), int8(0), []byte{})
	f.Add([]byte{2, 1, 1, 1, 1, 4, 4, 4, 4}, int8(0), int8(0), []byte{1})
	f.Add([]byte{2, 3, 3, 3, 3}, int8(3), int8(-1), []byte{0, 9})
	f.Fuzz(func(t *testing.T, data []byte, x, y int8, zb []byte) {
		d := matrixFrom(data)
		if len(zb) > 3 {
			zb = zb[:3]
		}
		z := make([]int, len(zb))
		for i, b := range zb {
			z[i] = int(int8(b))
		}
		want, werr := stats.GTest(d, int(x), int(y), z)
		cut := d.N() / 2
		halves := FromRows(d, 0, cut)
		if err := halves.Merge(FromRows(d, cut, d.N())); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			tab  *Table
		}{{"FromData", FromData(d)}, {"merged halves", halves}} {
			name := c.name
			got, gerr := c.tab.Test(int(x), int(y), z)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("%s: Test(%d, %d | %v) error %v, GTest error %v", name, x, y, z, gerr, werr)
			}
			if !sameBits(got, want) {
				t.Fatalf("%s: Test(%d, %d | %v) = %+v, GTest %+v", name, x, y, z, got, want)
			}
		}
	})
}
