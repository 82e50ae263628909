package serve

import (
	"fmt"

	"github.com/guardrail-db/guardrail/internal/dataset"
)

// rowBuf holds one request row, reused across the rows of a streaming
// request. Its encoder is per-request and never interns into the shared
// Entry's schema (see dataset.Encoder), so codes for unseen values never
// leak between requests.
type rowBuf struct {
	enc   *dataset.Encoder
	codes []int32
	// raw is the row as the client sent it, in schema order, for the
	// drift monitor.
	raw []string
}

func newRowBuf(schema *dataset.Relation) *rowBuf {
	n := schema.NumAttrs()
	return &rowBuf{enc: dataset.NewEncoder(schema), codes: make([]int32, n), raw: make([]string, n)}
}

// setFromMap fills the buffer from a JSON object keyed by attribute name.
// Absent attributes encode as Missing; unknown keys are an error so a
// typo'd column name cannot silently pass validation.
func (b *rowBuf) setFromMap(schema *dataset.Relation, m map[string]string) error {
	for k := range m {
		if schema.AttrIndex(k) < 0 {
			return fmt.Errorf("unknown attribute %q", k)
		}
	}
	for i := 0; i < schema.NumAttrs(); i++ {
		v := m[schema.Attr(i)]
		b.raw[i] = v
		b.codes[i] = b.enc.Encode(i, v)
	}
	return nil
}

// setFromRecord fills the buffer from a CSV record whose column i maps to
// schema attribute colOf[i].
func (b *rowBuf) setFromRecord(colOf []int, rec []string) {
	for i, v := range rec {
		a := colOf[i]
		b.raw[a] = v
		b.codes[a] = b.enc.Encode(a, v)
	}
}

// decodeMap renders the (possibly rectified) codes as an attribute-keyed
// map for JSON responses.
func (b *rowBuf) decodeMap(schema *dataset.Relation) map[string]string {
	out := make(map[string]string, len(b.codes))
	for i, c := range b.codes {
		out[schema.Attr(i)] = b.enc.Decode(i, c)
	}
	return out
}
