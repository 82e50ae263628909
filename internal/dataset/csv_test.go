package dataset

import (
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
	if rec, err := cr.Read(); err != nil || rec[1] != "2" {
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
