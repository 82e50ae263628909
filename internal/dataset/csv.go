package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
)

// Reader reads a header-first CSV stream one record at a time; every CSV
// ingest path in the module reads through it.
type Reader struct {
	cr     *csv.Reader
	header []string
	row    int
}

// NewReader reads the header row from rd. A missing header or a header
// naming a column twice is an error: a duplicated name would leave one
// attribute unreachable by name.
func NewReader(rd io.Reader) (*Reader, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1 // widths are checked by Read, with the row number
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	header = append([]string(nil), header...) // ReuseRecord overwrites it
	seen := make(map[string]bool, len(header))
	for _, h := range header {
		if seen[h] {
			return nil, fmt.Errorf("dataset: duplicate CSV column %q", h)
		}
		seen[h] = true
	}
	return &Reader{cr: cr, header: header}, nil
}

// Header returns the column names (do not mutate).
func (r *Reader) Header() []string { return r.header }

// Read returns the next record, which is only valid until the next call,
// or io.EOF after the last one. Rows are numbered from 0, not counting the
// header; a record whose width differs from the header's is an error.
func (r *Reader) Read() ([]string, error) {
	rec, err := r.cr.Read()
	if err == io.EOF {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV row %d: %w", r.row, err)
	}
	if len(rec) != len(r.header) {
		return nil, fmt.Errorf("dataset: CSV row %d has %d fields, header has %d", r.row, len(rec), len(r.header))
	}
	r.row++
	return rec, nil
}

// Encoder encodes string cells against a relation's dictionaries without
// ever interning into them, so any number of encoders — one per stream or
// request — can share one relation concurrently while it stays frozen.
//
// "" encodes as Missing and a dictionary value as its code. Each distinct
// unseen string gets its own batch-local code, allocated lazily from
// Cardinality(attr) upward and reused by repeats within the encoder's
// lifetime. Distinct codes keep two different unseen strings unequal
// under engine comparisons. They are sound for guard evaluation: program
// literals are interned, so their codes are strictly below
// Cardinality(attr), and the compiled engine's open-universe dispatch maps
// any code past its radix to no-match.
type Encoder struct {
	rel *Relation
	// unseen[a] maps attribute a's out-of-dictionary strings to their
	// batch-local codes; values[a][c-Cardinality(a)] is code c's string.
	unseen []map[string]int32
	values [][]string
}

// NewEncoder returns an encoder over rel's dictionaries as they are now;
// rel must not be interned into while the encoder is in use.
func NewEncoder(rel *Relation) *Encoder {
	n := rel.NumAttrs()
	return &Encoder{rel: rel, unseen: make([]map[string]int32, n), values: make([][]string, n)}
}

// MapHeader maps CSV header columns onto attributes: column i holds
// attribute colOf[i]. The header must name every attribute exactly once,
// so a width mismatch, an unknown name or a duplicated name is an error.
func (e *Encoder) MapHeader(header []string) (colOf []int, err error) {
	if len(header) != e.rel.NumAttrs() {
		return nil, fmt.Errorf("dataset: CSV has %d columns, schema has %d", len(header), e.rel.NumAttrs())
	}
	colOf = make([]int, len(header))
	seen := make([]bool, len(header))
	for i, h := range header {
		a := e.rel.AttrIndex(h)
		if a < 0 {
			return nil, fmt.Errorf("dataset: CSV column %q not in schema", h)
		}
		if seen[a] {
			return nil, fmt.Errorf("dataset: duplicate CSV column %q", h)
		}
		seen[a] = true
		colOf[i] = a
	}
	return colOf, nil
}

// Encode returns the code of v in attribute attr.
func (e *Encoder) Encode(attr int, v string) int32 {
	if v == "" {
		return Missing
	}
	if c, ok := e.rel.dicts[attr].byValue[v]; ok {
		return c
	}
	if c, ok := e.unseen[attr][v]; ok {
		return c
	}
	if e.unseen[attr] == nil {
		e.unseen[attr] = make(map[string]int32, 1)
	}
	c := int32(e.rel.Cardinality(attr) + len(e.values[attr]))
	e.unseen[attr][v] = c
	e.values[attr] = append(e.values[attr], v)
	return c
}

// EncodeBytes is Encode for a value held in a byte slice. A dictionary
// value, or an unseen value the encoder already holds, encodes without
// allocating; Decode of the code then returns the held string.
func (e *Encoder) EncodeBytes(attr int, v []byte) int32 {
	if len(v) == 0 {
		return Missing
	}
	if c, ok := e.rel.dicts[attr].byValue[string(v)]; ok {
		return c
	}
	if c, ok := e.unseen[attr][string(v)]; ok {
		return c
	}
	return e.Encode(attr, string(v))
}

// Decode returns the string of code c in attribute attr: "" for Missing
// (the CSV form, so empty cells round-trip), the dictionary value, or the
// unseen string a batch-local code was allocated for.
func (e *Encoder) Decode(attr int, c int32) string {
	if c == Missing {
		return ""
	}
	d := e.rel.dicts[attr]
	if int(c) < d.Len() {
		return d.values[c]
	}
	return e.values[attr][int(c)-d.Len()]
}

// FromCSV reads a relation from CSV with a header row, interning every
// value into the new relation's dictionaries; empty cells load as Missing.
func FromCSV(rd io.Reader, name string) (*Relation, error) {
	cr, err := NewReader(rd)
	if err != nil {
		return nil, err
	}
	rel := New(name, cr.Header())
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return rel, nil
		}
		if err != nil {
			return nil, err
		}
		if err := rel.AppendRow(rec); err != nil {
			return nil, err
		}
	}
}

// ToCSV writes the relation as CSV with a header row. Missing cells are
// written empty, so FromCSV reads them back as Missing.
func (r *Relation) ToCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.attrs); err != nil {
		return err
	}
	enc := NewEncoder(r)
	out := make([]string, len(r.attrs))
	for i := 0; i < r.nrows; i++ {
		for c, col := range r.cols {
			out[c] = enc.Decode(c, col[i])
		}
		if err := cw.Write(out); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
