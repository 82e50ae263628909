package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

// refRead reads data as Reader did when it wrapped encoding/csv: a header
// record that may name no column twice, then records of the header's
// width, stopping at the first error. It returns the header, the records
// and the error text ("" at a clean end).
func refRead(data []byte) (header []string, recs [][]string, errText string) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: reading CSV header: %w", err).Error()
	}
	seen := map[string]bool{}
	for _, h := range header {
		if seen[h] {
			return nil, nil, fmt.Sprintf("dataset: duplicate CSV column %q", h)
		}
		seen[h] = true
	}
	for row := 0; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return header, recs, ""
		}
		if err != nil {
			return header, recs, fmt.Errorf("dataset: reading CSV row %d: %w", row, err).Error()
		}
		if len(rec) != len(header) {
			return header, recs, fmt.Sprintf("dataset: CSV row %d has %d fields, header has %d", row, len(rec), len(header))
		}
		recs = append(recs, rec)
	}
}

// scanRead reads rd through Reader, in refRead's terms.
func scanRead(rd io.Reader) (header []string, recs [][]string, errText string) {
	cr, err := NewReader(rd)
	if err != nil {
		return nil, nil, err.Error()
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return cr.Header(), recs, ""
		}
		if err != nil {
			if again, err2 := cr.Read(); again != nil || err2 != err {
				return nil, nil, fmt.Sprintf("Read after %v returned %q, %v", err, again, err2)
			}
			return cr.Header(), recs, err.Error()
		}
		s := make([]string, len(rec))
		for i, f := range rec {
			s[i] = string(f)
		}
		recs = append(recs, s)
	}
}

// chunkReader returns at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// checkReader checks that Reader reads data as encoding/csv followed by
// the width check does, fed whole and n bytes per read.
func checkReader(t *testing.T, data []byte, n int) {
	t.Helper()
	wh, wrecs, werr := refRead(data)
	for _, rd := range []io.Reader{bytes.NewReader(data), chunkReader{bytes.NewReader(data), n}} {
		gh, grecs, gerr := scanRead(rd)
		if gerr != werr {
			t.Fatalf("%q read %T: error %q, want %q", data, rd, gerr, werr)
		}
		if !slices.Equal(gh, wh) {
			t.Fatalf("%q read %T: header %q, want %q", data, rd, gh, wh)
		}
		if !slices.EqualFunc(grecs, wrecs, slices.Equal) {
			t.Fatalf("%q read %T: records %q, want %q", data, rd, grecs, wrecs)
		}
	}
}

var readerCases = []string{
	"a,b\n1,2\n3,4\n",
	"a,b\r\n1,2\r\n\r\n\n3,4",
	"a,b\n1,2\r",
	"a,b\n\"x,y\",\"q\"\"uote\"\n",
	"a,b\n\"multi\nline\",\"cr\r\nlf\"\n",
	"a,b\n\"open\n",
	"a,b\n\"open\n\r",
	"a,b\n1,\"open\nmore\nstill",
	"a,b\n\"x\"\"\ny\"z\n",
	"a,b\n1,x\"y\n",
	"a,b\n1,\"x\"y\n",
	"a,b\n\"x\"\n\"y\"z\n",
	"a,b\n1\n",
	"a,b\n1,2,3\n",
	"a,a\n",
	"",
	"\n\n",
	"a\n\n,\n",
	"a,b\n,\n\"\",\"\"\n",
	"a,b\n\xff,\"\xff\"\n",
	"a,b\n\"a\rb\",c\rd\n",
	"a,b\n\"x\" ,y\n",
	"a,b\n\"\"\"\",\"\n\"\n",
}

func TestReaderMatchesEncodingCSV(t *testing.T) {
	long := "a,b\n" + strings.Repeat("x", 3*readSize) + ",\"" + strings.Repeat("y\n", readSize) + "\"\n"
	for _, c := range append(readerCases, long) {
		for n := 1; n <= 16; n++ {
			checkReader(t, []byte(c), n)
		}
	}
}

// FuzzReader checks Reader against encoding/csv on arbitrary input, read
// whole and again in reads of 1 to 16 bytes so records straddle the read
// buffer's edges.
func FuzzReader(f *testing.F) {
	for _, c := range readerCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReader(t, data, 1+len(data)%16)
	})
}
