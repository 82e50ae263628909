package dataset

import (
	"bytes"
	"encoding/csv"
	"io"
	"strings"
	"testing"
)

func TestMapHeader(t *testing.T) {
	enc := NewEncoder(sample())
	colOf, err := enc.MapHeader([]string{"State", "PostalCode", "City"})
	if err != nil {
		t.Fatal(err)
	}
	if colOf[0] != 2 || colOf[1] != 0 || colOf[2] != 1 {
		t.Fatalf("colOf = %v, want [2 0 1]", colOf)
	}
	for _, h := range [][]string{
		{"PostalCode", "City"},
		{"PostalCode", "City", "Country"},
		{"PostalCode", "City", "City"},
	} {
		if _, err := enc.MapHeader(h); err == nil {
			t.Errorf("header %v accepted", h)
		}
	}
}

// Decode inverts Encode for every kind of cell, and encoding never
// interns into the relation.
func TestEncoderRoundTrip(t *testing.T) {
	r := sample()
	enc := NewEncoder(r)
	for _, v := range []string{"", "Berkeley", "Oakland", "Chicago", "Oakland", "Fresno"} {
		if got := enc.Decode(1, enc.Encode(1, v)); got != v {
			t.Errorf("Decode(Encode(%q)) = %q", v, got)
		}
	}
	if r.Cardinality(1) != 3 {
		t.Fatalf("encoding interned into the relation: cardinality %d, want 3", r.Cardinality(1))
	}
}

func TestReaderRowErrors(t *testing.T) {
	cr, err := NewReader(strings.NewReader("a,b\n1,2\n3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := cr.Read(); err != nil || string(rec[1]) != "2" {
		t.Fatalf("row 0 = %v, %v", rec, err)
	}
	if _, err := cr.Read(); err == nil || !strings.Contains(err.Error(), "row 1 has 1 fields") {
		t.Fatalf("ragged row 1: err = %v", err)
	}
	cr, err = NewReader(strings.NewReader("a,b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Read(); err != io.EOF {
		t.Fatalf("header-only stream: err = %v, want io.EOF", err)
	}
}

// awkward holds values encoding/csv's Writer quotes or writes specially:
// a comma, a quote, a newline, carriage returns, a leading space, tab or
// U+00A0 (a Unicode space) and the `\.` end-of-data marker.
var awkward = []string{"a,b", `say "hi"`, "two\nlines", "cr\rin", "x\r\ny", " lead", "\tlead", "\u00a0lead", `\.`, "plain"}

// TestWriterMatchesEncodingCSV: ToCSV, and a Writer over codes outside the
// dictionary, write byte for byte what encoding/csv's Writer writes for
// the decoded strings, with Missing written empty.
func TestWriterMatchesEncodingCSV(t *testing.T) {
	header := []string{"a,b", " c", `"d"`}
	rel := New("t", header)
	want := [][]string{header}
	for i, v := range awkward {
		row := []string{v, awkward[(i+1)%len(awkward)], ""}
		if i%3 == 0 {
			row[0], row[2] = "", v
		}
		if err := rel.AppendRow(row); err != nil {
			t.Fatal(err)
		}
		want = append(want, row)
	}
	var b bytes.Buffer
	if err := csv.NewWriter(&b).WriteAll(want); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := rel.ToCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), b.Bytes()) {
		t.Fatalf("ToCSV wrote\n%q\nencoding/csv writes\n%q", got.Bytes(), b.Bytes())
	}

	// Unseen values, each written twice, columns reordered.
	enc := NewEncoder(rel)
	cols := []int{2, 0, 1}
	var unseen bytes.Buffer
	w := NewWriter(&unseen, enc, cols)
	want = want[:0]
	for _, v := range append(awkward, awkward...) {
		u := "new " + v
		row := []int32{enc.Encode(0, u), enc.Encode(1, v), enc.Encode(2, v+u)}
		if err := w.Write(row); err != nil {
			t.Fatal(err)
		}
		want = append(want, []string{v + u, u, v})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := csv.NewWriter(&b).WriteAll(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unseen.Bytes(), b.Bytes()) {
		t.Fatalf("Writer wrote\n%q\nencoding/csv writes\n%q", unseen.Bytes(), b.Bytes())
	}
}
