package serve

import (
	"bytes"
	"fmt"

	"github.com/guardrail-db/guardrail/internal/dataset"
)

// rowBuf holds one request row, reused across the rows of a streaming
// request. Its encoder is per-request and never interns into the shared
// Entry's schema (see dataset.Encoder), so codes for unseen values never
// leak between requests.
type rowBuf struct {
	schema *dataset.Relation
	enc    *dataset.Encoder
	codes  []int32
	// viols is the row's decoded violations, reused row to row.
	viols []apiViolation
}

func newRowBuf(schema *dataset.Relation) *rowBuf {
	n := schema.NumAttrs()
	return &rowBuf{
		schema: schema,
		enc:    dataset.NewEncoder(schema),
		codes:  make([]int32, n),
		viols:  []apiViolation{}, // never nil: an empty list encodes as []
	}
}

// setFromMap fills the buffer from a JSON object keyed by attribute name.
// Absent attributes encode as Missing; unknown keys are an error so a
// typo'd column name cannot silently pass validation.
func (b *rowBuf) setFromMap(m map[string]string) error {
	unknown, found := "", false
	for k := range m {
		if b.schema.AttrIndex(k) < 0 && (!found || k < unknown) {
			unknown, found = k, true
		}
	}
	if found {
		return unknownAttrError(unknown)
	}
	for i := range b.codes {
		b.codes[i] = b.enc.Encode(i, m[b.schema.Attr(i)])
	}
	return nil
}

// unknownAttrError names a row's unknown key. With several, it names the
// least in byte order, so a row gets one response whichever decoder read it.
func unknownAttrError(k string) error { return fmt.Errorf("unknown attribute %q", k) }

// setFromScan fills the buffer from the object obj scanned by sc, as
// setFromMap would from its decoded map.
func (b *rowBuf) setFromScan(obj []byte, sc *flatScanner) error {
	var unknown []byte
	found := false
	for _, p := range sc.pairs {
		if k := sc.text(obj, p.k); b.schema.AttrIndex(string(k)) < 0 && (!found || bytes.Compare(k, unknown) < 0) {
			unknown, found = k, true
		}
	}
	if found {
		return unknownAttrError(string(unknown))
	}
	for i := range b.codes {
		b.codes[i] = dataset.Missing
	}
	for _, p := range sc.pairs {
		a := b.schema.AttrIndex(string(sc.text(obj, p.k)))
		b.codes[a] = b.enc.EncodeBytes(a, sc.text(obj, p.v))
	}
	return nil
}

// setFromRecord fills the buffer from a CSV record whose column i maps to
// schema attribute colOf[i].
func (b *rowBuf) setFromRecord(colOf []int, rec [][]byte) {
	for i, v := range rec {
		b.codes[colOf[i]] = b.enc.EncodeBytes(colOf[i], v)
	}
}

// decodeMap renders the (possibly rectified) codes as an attribute-keyed
// map for JSON responses.
func (b *rowBuf) decodeMap() map[string]string {
	out := make(map[string]string, len(b.codes))
	for i, c := range b.codes {
		out[b.schema.Attr(i)] = b.enc.Decode(i, c)
	}
	return out
}
