package dataset

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Relation {
	r := New("zip", []string{"PostalCode", "City", "State"})
	rows := [][]string{
		{"94704", "Berkeley", "CA"},
		{"94704", "Berkeley", "CA"},
		{"10001", "NewYork", "NY"},
		{"60601", "Chicago", "IL"},
	}
	for _, row := range rows {
		if err := r.AppendRow(row); err != nil {
			panic(err)
		}
	}
	return r
}

func TestBasicShape(t *testing.T) {
	r := sample()
	if got := r.NumRows(); got != 4 {
		t.Fatalf("NumRows = %d, want 4", got)
	}
	if got := r.NumAttrs(); got != 3 {
		t.Fatalf("NumAttrs = %d, want 3", got)
	}
	if got := r.AttrIndex("City"); got != 1 {
		t.Fatalf("AttrIndex(City) = %d, want 1", got)
	}
	if got := r.AttrIndex("missing"); got != -1 {
		t.Fatalf("AttrIndex(missing) = %d, want -1", got)
	}
	if got := r.Value(0, 1); got != "Berkeley" {
		t.Fatalf("Value(0,1) = %q, want Berkeley", got)
	}
	if got := r.Cardinality(0); got != 3 {
		t.Fatalf("Cardinality(PostalCode) = %d, want 3", got)
	}
}

func TestDictInternStable(t *testing.T) {
	d := NewDict()
	a := d.Intern("x")
	b := d.Intern("y")
	if a2 := d.Intern("x"); a2 != a {
		t.Fatalf("re-intern changed code: %d vs %d", a2, a)
	}
	if a == b {
		t.Fatalf("distinct values share code %d", a)
	}
	if d.Value(a) != "x" || d.Value(b) != "y" {
		t.Fatalf("round trip failed: %q %q", d.Value(a), d.Value(b))
	}
	if d.Value(Missing) != "NaN" {
		t.Fatalf("Missing renders as %q, want NaN", d.Value(Missing))
	}
}

func TestAppendRowArity(t *testing.T) {
	r := New("t", []string{"a", "b"})
	if err := r.AppendRow([]string{"1"}); err == nil {
		t.Fatal("expected arity error")
	}
	if err := r.AppendCodes([]int32{0, 0, 0}); err == nil {
		t.Fatal("expected arity error for codes")
	}
}

func TestMissingCell(t *testing.T) {
	r := New("t", []string{"a", "b"})
	if err := r.AppendRow([]string{"x", ""}); err != nil {
		t.Fatal(err)
	}
	if got := r.Code(0, 1); got != Missing {
		t.Fatalf("empty cell code = %d, want Missing", got)
	}
	if got := r.Value(0, 1); got != "NaN" {
		t.Fatalf("empty cell value = %q, want NaN", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := sample()
	c := r.Clone()
	c.SetCode(0, 1, c.Intern(1, "Oakland"))
	if r.Value(0, 1) != "Berkeley" {
		t.Fatalf("mutating clone leaked into original: %q", r.Value(0, 1))
	}
	if c.Value(0, 1) != "Oakland" {
		t.Fatalf("clone mutation lost: %q", c.Value(0, 1))
	}
}

func TestSelectRows(t *testing.T) {
	r := sample()
	s := r.SelectRows([]int{2, 0})
	if s.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", s.NumRows())
	}
	if s.Value(0, 1) != "NewYork" || s.Value(1, 1) != "Berkeley" {
		t.Fatalf("wrong rows selected: %q %q", s.Value(0, 1), s.Value(1, 1))
	}
}

func TestSplitPartitions(t *testing.T) {
	r := sample()
	train, test := r.Split(0.5, 1)
	if train.NumRows()+test.NumRows() != r.NumRows() {
		t.Fatalf("split loses rows: %d + %d != %d", train.NumRows(), test.NumRows(), r.NumRows())
	}
	if train.NumRows() != 2 {
		t.Fatalf("train rows = %d, want 2", train.NumRows())
	}
	// Deterministic for a fixed seed.
	t2, _ := r.Split(0.5, 1)
	for i := 0; i < t2.NumRows(); i++ {
		if t2.Value(i, 0) != train.Value(i, 0) {
			t.Fatalf("split not deterministic at row %d", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := sample()
	var buf bytes.Buffer
	if err := r.ToCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := FromCSV(&buf, "zip")
	if err != nil {
		t.Fatal(err)
	}
	if r2.NumRows() != r.NumRows() || r2.NumAttrs() != r.NumAttrs() {
		t.Fatalf("shape changed: %v vs %v", r2, r)
	}
	for i := 0; i < r.NumRows(); i++ {
		for j := 0; j < r.NumAttrs(); j++ {
			if r.Value(i, j) != r2.Value(i, j) {
				t.Fatalf("cell (%d,%d) changed: %q vs %q", i, j, r.Value(i, j), r2.Value(i, j))
			}
		}
	}
}

func TestFromCSVErrors(t *testing.T) {
	if _, err := FromCSV(strings.NewReader(""), "x"); err == nil {
		t.Fatal("expected error on empty input")
	}
	if _, err := FromCSV(strings.NewReader("a,b\n1\n"), "x"); err == nil {
		t.Fatal("expected error on ragged row")
	}
	if _, err := FromCSV(strings.NewReader("a,a\n1,2\n"), "x"); err == nil {
		t.Fatal("expected error on duplicate header name")
	}
}

// Empty cells load as Missing and are written back empty, not as the
// "NaN" that Dict.Value renders for display.
func TestCSVRoundTripEmptyCells(t *testing.T) {
	const in = "a,b,c\nx,,z\n,y,\nx,y,z\n"
	r, err := FromCSV(strings.NewReader(in), "x")
	if err != nil {
		t.Fatal(err)
	}
	if r.Code(0, 1) != Missing || r.Code(1, 0) != Missing {
		t.Fatal("empty cells did not load as Missing")
	}
	var out bytes.Buffer
	if err := r.ToCSV(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != in {
		t.Fatalf("round trip changed the CSV:\n%s\nwant:\n%s", out.String(), in)
	}
}

func TestRowBufferReuse(t *testing.T) {
	r := sample()
	buf := make([]int32, 0, 8)
	row0 := r.Row(0, buf)
	row2 := r.Row(2, row0)
	if r.Dict(1).Value(row2[1]) != "NewYork" {
		t.Fatalf("reused buffer holds wrong row: %v", row2)
	}
}

// Property: interning any sequence of strings round-trips through Value.
func TestDictRoundTripProperty(t *testing.T) {
	f := func(vals []string) bool {
		d := NewDict()
		for _, v := range vals {
			c := d.Intern(v)
			if d.Value(c) != v {
				return false
			}
		}
		return d.Len() <= len(vals)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Split with any fraction partitions rows without loss.
func TestSplitProperty(t *testing.T) {
	f := func(seed int64, fracRaw uint8) bool {
		frac := float64(fracRaw) / 255
		r := sample()
		a, b := r.Split(frac, seed)
		return a.NumRows()+b.NumRows() == r.NumRows()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDropFront(t *testing.T) {
	r := New("t", []string{"a", "b"})
	for i := 0; i < 5; i++ {
		if err := r.AppendRow([]string{fmt.Sprint(i), ""}); err != nil {
			t.Fatal(err)
		}
	}
	r.DropFront(2)
	if r.NumRows() != 3 || r.Value(0, 0) != "2" || r.Value(2, 0) != "4" || r.Code(1, 1) != Missing {
		t.Fatalf("after DropFront(2): %v rows %v %v", r, r.RowStrings(0), r.RowStrings(2))
	}
	if c, ok := r.Dict(0).Lookup("0"); !ok || c != 0 || r.Cardinality(0) != 5 {
		t.Fatalf("dropping rows changed the dictionary: code %d ok %v card %d", c, ok, r.Cardinality(0))
	}
	r.DropFront(10)
	if r.NumRows() != 0 || len(r.Column(0)) != 0 {
		t.Fatalf("DropFront past the end left %d rows", r.NumRows())
	}
}

func TestFilter(t *testing.T) {
	r := sample()
	ca := r.Filter(func(i int) bool { return r.Value(i, 2) == "CA" })
	if ca.NumRows() != 2 {
		t.Fatalf("filtered rows = %d", ca.NumRows())
	}
	for i := 0; i < ca.NumRows(); i++ {
		if ca.Value(i, 2) != "CA" {
			t.Fatalf("wrong row kept: %v", ca.RowStrings(i))
		}
	}
	none := r.Filter(func(int) bool { return false })
	if none.NumRows() != 0 {
		t.Fatal("empty filter kept rows")
	}
}
