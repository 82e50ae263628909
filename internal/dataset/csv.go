package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
)

// Reader reads a header-first CSV stream one record at a time; every CSV
// ingest path in the module reads through it. It scans its own read
// buffer for ',', '"' and '\n': a line without a quote is split in place,
// and a line with one is parsed by the same rules as encoding/csv's
// Reader (with FieldsPerRecord -1) — "" escapes a quote, a quoted field
// may span lines, \r\n reads as \n, empty lines are skipped — with the
// same *csv.ParseError values on malformed input. A record is returned as
// soon as its last newline is in the buffer, without another read.
type Reader struct {
	rd      io.Reader
	buf     []byte // buf[off:] is unread input
	off     int
	scanned int   // buf[off:scanned] holds no '\n'
	rerr    error // rd's first error, io.EOF at its end
	line    int   // lines read, numbered as encoding/csv numbers them
	header  []string
	row     int
	err     error // the first error Read returned, returned again after it
	fields  [][]byte
	// rec and ends hold a quoted line's unescaped fields: field i is
	// rec[ends[i-1]:ends[i]].
	rec  []byte
	ends []int
}

// readSize is the least free space each read of the input offers.
const readSize = 32 << 10

// NewReader reads the header row from rd. A missing header or a header
// naming a column twice is an error: a duplicated name would leave one
// attribute unreachable by name.
func NewReader(rd io.Reader) (*Reader, error) {
	// Twice readSize, so the partial line a read leaves at the end moves to
	// the front and the buffer does not grow unless a line outgrows it.
	r := &Reader{rd: rd, buf: make([]byte, 0, 2*readSize)}
	fields, err := r.readRecord()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	r.header = make([]string, len(fields))
	seen := make(map[string]bool, len(fields))
	for i, f := range fields {
		h := string(f)
		if seen[h] {
			return nil, fmt.Errorf("dataset: duplicate CSV column %q", h)
		}
		seen[h] = true
		r.header[i] = h
	}
	return r, nil
}

// Header returns the column names (do not mutate).
func (r *Reader) Header() []string { return r.header }

// Read returns the next record, or io.EOF after the last one. The record
// and its fields are only valid until the next call. Rows are numbered
// from 0, not counting the header; a record whose width differs from the
// header's is an error. After an error, Read returns it again.
func (r *Reader) Read() ([][]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	rec, err := r.readRecord()
	if err == io.EOF {
		r.err = err
	} else if err != nil {
		r.err = fmt.Errorf("dataset: reading CSV row %d: %w", r.row, err)
	} else if len(rec) != len(r.header) {
		r.err = fmt.Errorf("dataset: CSV row %d has %d fields, header has %d", r.row, len(rec), len(r.header))
	} else {
		r.row++
		return rec, nil
	}
	return nil, r.err
}

// readRecord reads the next non-empty line and parses it into fields,
// returning a read error other than io.EOF along with them, as
// encoding/csv does.
func (r *Reader) readRecord() ([][]byte, error) {
	var line []byte
	var errRead error
	for errRead == nil {
		line, errRead = r.readLine()
		if errRead == nil && len(line) == lengthNL(line) {
			continue // skip empty lines
		}
		break
	}
	if errRead == io.EOF {
		return nil, errRead
	}
	// Split the line in place unless it holds a quote.
	text := line[:len(line)-lengthNL(line)]
	r.fields = r.fields[:0]
	start := 0
	for i, c := range text {
		if c == ',' {
			r.fields = append(r.fields, text[start:i])
			start = i + 1
		} else if c == '"' {
			return r.parseQuoted(line, errRead)
		}
	}
	r.fields = append(r.fields, text[start:])
	return r.fields, errRead
}

// parseQuoted parses a record whose first line holds a quote, reading
// further lines while a quoted field is open. It follows encoding/csv's
// readRecord step for step, so positions and errors match.
func (r *Reader) parseQuoted(line []byte, errRead error) ([][]byte, error) {
	var err error
	recLine := r.line
	r.rec, r.ends = r.rec[:0], r.ends[:0]
	posLine, col := r.line, 1
parseField:
	for {
		if len(line) == 0 || line[0] != '"' {
			// An unquoted field, which may not hold a quote.
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			if j := bytes.IndexByte(field, '"'); j >= 0 {
				err = &csv.ParseError{StartLine: recLine, Line: r.line, Column: col + j, Err: csv.ErrBareQuote}
				break parseField
			}
			r.rec = append(r.rec, field...)
			r.ends = append(r.ends, len(r.rec))
			if i < 0 {
				break parseField
			}
			line = line[i+1:]
			col += i + 1
			continue
		}
		// A quoted field.
		line = line[1:]
		col++
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				r.rec = append(r.rec, line[:i]...)
				line = line[i+1:]
				col += i + 1
				switch {
				case len(line) > 0 && line[0] == '"': // "" escapes a quote
					r.rec = append(r.rec, '"')
					line = line[1:]
					col++
				case len(line) > 0 && line[0] == ',': // the field ends
					line = line[1:]
					col++
					r.ends = append(r.ends, len(r.rec))
					continue parseField
				case lengthNL(line) == len(line): // the record ends
					r.ends = append(r.ends, len(r.rec))
					break parseField
				default:
					err = &csv.ParseError{StartLine: recLine, Line: r.line, Column: col - 1, Err: csv.ErrQuote}
					break parseField
				}
			case len(line) > 0:
				// The line ends inside the field: go on to the next one.
				r.rec = append(r.rec, line...)
				if errRead != nil {
					break parseField
				}
				col += len(line)
				line, errRead = r.readLine()
				if len(line) > 0 {
					posLine++
					col = 1
				}
				if errRead == io.EOF {
					errRead = nil
				}
			default:
				// The input ends inside the field.
				if errRead == nil {
					err = &csv.ParseError{StartLine: recLine, Line: posLine, Column: col, Err: csv.ErrQuote}
					break parseField
				}
				r.ends = append(r.ends, len(r.rec))
				break parseField
			}
		}
	}
	if err == nil {
		err = errRead
	}
	r.fields = r.fields[:0]
	lo := 0
	for _, hi := range r.ends {
		r.fields = append(r.fields, r.rec[lo:hi:hi])
		lo = hi
	}
	return r.fields, err
}

// readLine returns the next line with its '\n', or the input's last bytes
// and the read error that ended them, as encoding/csv's readLine does: a
// line ending \r\n ends \n, and an unterminated last line before io.EOF
// comes with a nil error and without a trailing '\r'. The line stays
// valid until the next readLine.
func (r *Reader) readLine() ([]byte, error) {
	for {
		if i := bytes.IndexByte(r.buf[r.scanned:], '\n'); i >= 0 {
			end := r.scanned + i + 1
			line := r.buf[r.off:end]
			r.off, r.scanned = end, end
			r.line++
			if n := len(line); n >= 2 && line[n-2] == '\r' {
				line[n-2] = '\n'
				line = line[:n-1]
			}
			return line, nil
		}
		r.scanned = len(r.buf)
		if r.rerr != nil {
			line, err := r.buf[r.off:], r.rerr
			r.off = len(r.buf)
			r.line++
			if n := len(line); n > 0 && err == io.EOF {
				err = nil
				if line[n-1] == '\r' {
					line = line[:n-1]
				}
			}
			return line, err
		}
		r.fill()
	}
}

// fill moves the unread input to the front of buf and reads more after it.
func (r *Reader) fill() {
	if r.off > 0 {
		n := copy(r.buf, r.buf[r.off:])
		r.buf = r.buf[:n]
		r.scanned -= r.off
		r.off = 0
	}
	r.buf = slices.Grow(r.buf, readSize)
	for empty := 0; ; empty++ {
		n, err := r.rd.Read(r.buf[len(r.buf):cap(r.buf)])
		r.buf = r.buf[:len(r.buf)+n]
		if err != nil {
			r.rerr = err
			return
		}
		if n > 0 {
			return
		}
		if empty == 100 {
			r.rerr = io.ErrNoProgress
			return
		}
	}
}

func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
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
// Only a value not seen before allocates.
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
		for i, v := range rec {
			c := Missing
			if len(v) > 0 {
				c = rel.dicts[i].internBytes(v)
			}
			rel.cols[i] = append(rel.cols[i], c)
		}
		rel.nrows++
	}
}

// ToCSV writes the relation as CSV with a header row. Missing cells are
// written empty, so FromCSV reads them back as Missing.
func (r *Relation) ToCSV(w io.Writer) error {
	cols := make([]int, len(r.attrs))
	for i := range cols {
		cols[i] = i
	}
	cw := NewWriter(w, NewEncoder(r), cols)
	if err := cw.WriteHeader(r.attrs); err != nil {
		return err
	}
	row := make([]int32, len(r.attrs))
	for i := 0; i < r.nrows; i++ {
		if err := cw.Write(r.Row(i, row)); err != nil {
			return err
		}
	}
	return cw.Flush()
}

// Writer writes CSV rows of codes. Each code's field bytes — its string,
// quoted as encoding/csv's Writer quotes it — are made once, when the
// writer first writes the code, and copied from then on, so the output is
// byte for byte what encoding/csv writes for the decoded strings.
type Writer struct {
	w    io.Writer
	enc  *Encoder
	cols []int
	buf  []byte // output not yet written to w
	err  error  // the first write error, returned from then on
	// field[a][c] is code c's field bytes in attribute a, nil until made.
	field [][][]byte
	// quote and quoted run encoding/csv's quoting on one field at a time.
	quote  *csv.Writer
	quoted bytes.Buffer
	one    [1]string
}

// writeSize is the output a Writer holds before writing it through.
const writeSize = 32 << 10

// NewWriter returns a writer whose rows hold attribute cols[i] in column
// i, decoding codes through enc.
func NewWriter(w io.Writer, enc *Encoder, cols []int) *Writer {
	return &Writer{w: w, enc: enc, cols: cols, field: make([][][]byte, enc.rel.NumAttrs())}
}

// WriteHeader writes a record of strings, such as the header row.
func (w *Writer) WriteHeader(rec []string) error {
	for i, s := range rec {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.buf = append(w.buf, w.quoteField(s)...)
	}
	w.buf = append(w.buf, '\n')
	return w.spill()
}

// Write writes one row; codes[a] is attribute a's code, as an Encoder over
// the writer's relation encodes it.
func (w *Writer) Write(codes []int32) error {
	buf := w.buf
	for i, a := range w.cols {
		if i > 0 {
			buf = append(buf, ',')
		}
		c := codes[a]
		if c == Missing {
			continue
		}
		if f := w.field[a]; int(c) < len(f) && f[c] != nil {
			buf = append(buf, f[c]...)
			continue
		}
		buf = append(buf, w.makeField(a, c)...)
	}
	w.buf = append(buf, '\n')
	return w.spill()
}

// makeField makes and keeps code c's field bytes in attribute a.
func (w *Writer) makeField(a int, c int32) []byte {
	f := w.field[a]
	if int(c) >= len(f) {
		f = slices.Grow(f, max(int(c)+1, w.enc.rel.Cardinality(a))-len(f))
		f = f[:cap(f)]
		w.field[a] = f
	}
	f[c] = bytes.Clone(w.quoteField(w.enc.Decode(a, c)))
	return f[c]
}

// quoteField returns s as encoding/csv's Writer writes it as a field,
// valid until the next call.
func (w *Writer) quoteField(s string) []byte {
	if w.quote == nil {
		w.quote = csv.NewWriter(&w.quoted)
	}
	w.quoted.Reset()
	w.one[0] = s
	_ = w.quote.Write(w.one[:]) // into a bytes.Buffer: cannot fail
	w.quote.Flush()
	b := w.quoted.Bytes()
	return b[:len(b)-1] // the record's '\n'
}

// spill writes the held output through once it passes writeSize.
func (w *Writer) spill() error {
	if len(w.buf) < writeSize {
		return w.err
	}
	return w.Flush()
}

// Flush writes the held output to the underlying writer.
func (w *Writer) Flush() error {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}
