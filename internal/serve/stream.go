package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/guardrail-db/guardrail/internal/dataset"
)

// batchStream is the response side of one streaming batch request, and
// the request body the handler reads through. Output is held back until
// the handler reads the body again — the only point where it can block
// waiting for the client — and then goes out in one write and flush. Rows
// the client has already sent are answered together, while a client that
// waits for each verdict before sending its next row still gets it. A
// handler that has produced nothing flushes nothing, so an early 4xx
// (a bad CSV header) keeps its status.
type batchStream struct {
	w    http.ResponseWriter
	ctrl *http.ResponseController
	body io.Reader
	// out holds NDJSON lines not yet written to w; csv, once startCSV
	// made it, is the CSV writer over w, whose buffer is pending too.
	out   []byte
	csv   *dataset.Writer
	dirty bool // output produced since the last flush
}

func newBatchStream(w http.ResponseWriter, body io.Reader) *batchStream {
	// HTTP/1.x is half-duplex by default: after the first response write
	// the server closes the request body, which would kill a batch whose
	// rows aren't fully buffered before the first verdict flushes.
	// NewResponseController (rather than a Flusher type assertion)
	// reaches the real writer through the telemetry wrapper's Unwrap.
	ctrl := http.NewResponseController(w)
	_ = ctrl.EnableFullDuplex()
	return &batchStream{w: w, ctrl: ctrl, body: body}
}

// Read flushes pending output, then reads the request body.
func (s *batchStream) Read(p []byte) (int, error) {
	if s.dirty {
		s.flush()
	}
	return s.body.Read(p)
}

// streamOutMax bounds the NDJSON bytes a stream holds back; past it, they
// go to the response writer, which sends them as its buffer fills.
const streamOutMax = 32 << 10

// writeVerdict appends v's NDJSON line to the pending output; vals and
// order are appendVerdict's.
func (s *batchStream) writeVerdict(v *verdict, vals *rowBuf, order []int) {
	s.out = appendVerdict(s.out, v, vals, order)
	s.produced()
}

// writeSummary appends the summary line to the pending output.
func (s *batchStream) writeSummary(sum batchSummary) {
	s.out = appendSummary(s.out, sum)
	s.produced()
}

// produced marks the NDJSON output pending, writing it through once it
// passes streamOutMax.
func (s *batchStream) produced() {
	s.dirty = true
	if len(s.out) >= streamOutMax {
		_, _ = s.w.Write(s.out)
		s.out = s.out[:0]
	}
}

// startCSV begins a CSV response with its header row; rows written by
// writeCSV hold attribute colOf[i] in column i, decoded through enc. The
// CSV writer's buffer is pending output until the next flush.
func (s *batchStream) startCSV(enc *dataset.Encoder, colOf []int, header []string) error {
	s.csv = dataset.NewWriter(s.w, enc, colOf)
	s.dirty = true
	return s.csv.WriteHeader(header)
}

// writeCSV writes one row of codes to the CSV response.
func (s *batchStream) writeCSV(codes []int32) error {
	s.dirty = true
	return s.csv.Write(codes)
}

// flush sends all pending output to the client.
func (s *batchStream) flush() {
	s.dirty = false
	s.drain()
	_ = s.ctrl.Flush()
}

// drain moves pending output into the response writer, which sends it
// when the handler returns.
func (s *batchStream) drain() {
	if len(s.out) > 0 {
		_, _ = s.w.Write(s.out)
		s.out = s.out[:0]
	}
	if s.csv != nil {
		_ = s.csv.Flush() // a failed write ends the response; the client sees it cut
	}
}

// ndjsonReader splits an NDJSON body into rows. The common row, a flat
// object of string or null values (see flatScanner), is scanned in place
// and never becomes a map. Any other value, and a row that two reads of
// the body leave incomplete, is decoded by encoding/json from the same
// position, so its acceptance rules and error text are those of a
// json.Decoder over the whole body, and however the body's reads split a
// row, its bytes are scanned at most twice.
type ndjsonReader struct {
	r    io.Reader
	buf  []byte
	off  int   // start of the unread bytes in buf
	err  error // the body's first read error, io.EOF at its end
	scan flatScanner
	// scanned bounds the bytes scan has examined: a row's bytes up to
	// where each scan of it stopped, all of them when it ran short.
	scanned int
}

// ndjsonMinRead is the least free space each read of the body offers.
const ndjsonMinRead = 16 << 10

// readRow reads the next row into b. It returns io.EOF after the last row,
// a "decoding row" error for a value that does not decode into a
// map[string]string, and setFromMap's error for a key that names no
// attribute.
func (d *ndjsonReader) readRow(b *rowBuf) error {
	for {
		for d.off < len(d.buf) && isJSONSpace(d.buf[d.off]) {
			d.off++
		}
		if d.off < len(d.buf) || d.err != nil {
			break
		}
		d.fill()
	}
	n, st := d.scan.scan(d.buf[d.off:])
	if st == scanShort && d.err == nil {
		// One more read of the body usually completes a row the buffer
		// cut. A row still cut short after it is left to encoding/json,
		// which resumes where it stopped, so no row is scanned more than
		// twice, however many reads it takes to arrive.
		d.scanned += len(d.buf) - d.off
		d.fill()
		n, st = d.scan.scan(d.buf[d.off:])
	}
	if st == scanOK {
		obj := d.buf[d.off : d.off+n]
		d.off += n
		d.scanned += n
		return b.setFromScan(obj, &d.scan)
	}
	d.scanned += len(d.buf) - d.off
	m, err := d.decode()
	if err == io.EOF {
		return err
	}
	if err != nil {
		return fmt.Errorf("decoding row: %w", err)
	}
	return b.setFromMap(m)
}

// fill reads more of the body onto the end of buf.
func (d *ndjsonReader) fill() {
	if d.off > 0 {
		d.buf = d.buf[:copy(d.buf, d.buf[d.off:])]
		d.off = 0
	}
	d.buf = slices.Grow(d.buf, ndjsonMinRead)
	n, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
	d.buf = d.buf[:len(d.buf)+n]
	d.err = err
}

// decode decodes the value at the read position with encoding/json,
// which reads on into the body when the value does not end inside buf.
func (d *ndjsonReader) decode() (map[string]string, error) {
	br := bytes.NewReader(d.buf[d.off:])
	tail := d.r
	if d.err != nil {
		tail = errReader{d.err}
	}
	dec := json.NewDecoder(io.MultiReader(br, tail))
	var m map[string]string
	err := dec.Decode(&m)
	if br.Len() > 0 {
		// The decoder never reached the body: step over the value.
		d.off += int(dec.InputOffset())
		return m, err
	}
	// Keep what the decoder read past the value, from buf or the body.
	rest, rerr := io.ReadAll(dec.Buffered()) // in memory: cannot fail
	if rerr != nil && err == nil {
		err = rerr
	}
	d.buf, d.off = rest, 0
	return m, err
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

func isJSONSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

type scanStatus int

const (
	scanOK    scanStatus = iota
	scanShort            // data ends inside the object
	scanOther            // not a flat object of strings and nulls
)

// flatScanner scans the common NDJSON row: one flat JSON object whose
// values are strings or null. It decodes exactly as json.Unmarshal into
// a map[string]string does — escapes resolved, a broken surrogate or an
// invalid UTF-8 byte read as U+FFFD, null read as "", the last of a
// repeated key winning — and leaves every other value to encoding/json.
// Its pairs and unescaped text are reused from one object to the next.
type flatScanner struct {
	pairs []flatPair
	esc   []byte // the unescaped text of strings that needed it
}

// flatPair is one key and its value in a scanned object.
type flatPair struct{ k, v strSpan }

// strSpan locates a string's value: obj[lo:hi] of the scanned object when
// its JSON text is its value, else esc[lo:hi].
type strSpan struct {
	lo, hi int
	esc    bool
}

// text returns the bytes of sp, a span of the object obj.
func (s *flatScanner) text(obj []byte, sp strSpan) []byte {
	if sp.esc {
		return s.esc[sp.lo:sp.hi]
	}
	return obj[sp.lo:sp.hi]
}

// scan scans the object at the start of data, returning its length.
func (s *flatScanner) scan(data []byte) (int, scanStatus) {
	s.pairs, s.esc = s.pairs[:0], s.esc[:0]
	if len(data) == 0 {
		return 0, scanShort
	}
	if data[0] != '{' {
		return 0, scanOther
	}
	i := skipJSONSpace(data, 1)
	if i < len(data) && data[i] == '}' {
		return i + 1, scanOK
	}
	for {
		var p flatPair
		var st scanStatus
		if p.k, i, st = s.str(data, i); st != scanOK {
			return 0, st
		}
		i = skipJSONSpace(data, i)
		if i >= len(data) {
			return 0, scanShort
		}
		if data[i] != ':' {
			return 0, scanOther
		}
		i = skipJSONSpace(data, i+1)
		if i < len(data) && data[i] == 'n' {
			// null decodes into a map[string]string as "".
			switch {
			case len(data)-i < 4:
				if !bytes.HasPrefix([]byte("null"), data[i:]) {
					return 0, scanOther
				}
				return 0, scanShort
			case string(data[i:i+4]) != "null":
				return 0, scanOther
			}
			i += 4
		} else if p.v, i, st = s.str(data, i); st != scanOK {
			return 0, st
		}
		s.pairs = append(s.pairs, p)
		i = skipJSONSpace(data, i)
		if i >= len(data) {
			return 0, scanShort
		}
		switch data[i] {
		case '}':
			return i + 1, scanOK
		case ',':
			i = skipJSONSpace(data, i+1)
		default:
			return 0, scanOther
		}
	}
}

// str scans the JSON string at data[i], returning its span and the index
// past its closing quote. A string whose text is its value stays in data;
// any other is decoded into esc.
func (s *flatScanner) str(data []byte, i int) (strSpan, int, scanStatus) {
	if i >= len(data) {
		return strSpan{}, i, scanShort
	}
	if data[i] != '"' {
		return strSpan{}, i, scanOther
	}
	start := i + 1
	j := start
	for j < len(data) {
		c := data[j]
		if c == '"' {
			return strSpan{lo: start, hi: j}, j + 1, scanOK
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			j++
			continue
		}
		r, size := utf8.DecodeRune(data[j:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		j += size
	}
	lo := len(s.esc)
	s.esc = append(s.esc, data[start:j]...)
	for j < len(data) {
		c := data[j]
		switch {
		case c == '"':
			return strSpan{lo: lo, hi: len(s.esc), esc: true}, j + 1, scanOK
		case c < ' ':
			return strSpan{}, j, scanOther // a syntax error
		case c == '\\':
			if j+1 >= len(data) {
				return strSpan{}, j, scanShort
			}
			switch e := data[j+1]; e {
			case '"', '\\', '/':
				s.esc = append(s.esc, e)
			case 'b':
				s.esc = append(s.esc, '\b')
			case 'f':
				s.esc = append(s.esc, '\f')
			case 'n':
				s.esc = append(s.esc, '\n')
			case 'r':
				s.esc = append(s.esc, '\r')
			case 't':
				s.esc = append(s.esc, '\t')
			case 'u':
				r, st := hex4(data, j)
				if st != scanOK {
					return strSpan{}, j, st
				}
				j += 6
				if utf16.IsSurrogate(r) {
					// A high surrogate pairs with a following \uXXXX
					// low one; anything else reads as U+FFFD.
					r2, st := hex4(data, j)
					if st == scanShort {
						return strSpan{}, j, st
					}
					if d := utf16.DecodeRune(r, r2); st == scanOK && d != utf8.RuneError {
						r = d
						j += 6
					} else {
						r = utf8.RuneError
					}
				}
				s.esc = utf8.AppendRune(s.esc, r)
				continue
			default:
				return strSpan{}, j, scanOther
			}
			j += 2
		case c < utf8.RuneSelf:
			s.esc = append(s.esc, c)
			j++
		default:
			if !utf8.FullRune(data[j:]) {
				return strSpan{}, j, scanShort
			}
			r, size := utf8.DecodeRune(data[j:])
			s.esc = utf8.AppendRune(s.esc, r) // an invalid byte reads as U+FFFD
			j += size
		}
	}
	return strSpan{}, j, scanShort
}

// hex4 reads the \uXXXX escape at data[j]: scanShort when data ends
// inside it, scanOther when it is not one.
func hex4(data []byte, j int) (rune, scanStatus) {
	const esc = `\u`
	var r rune
	for k := 0; k < 6; k++ {
		if j+k >= len(data) {
			if k < 2 && !bytes.HasPrefix([]byte(esc), data[j:]) {
				return 0, scanOther
			}
			return 0, scanShort
		}
		c := data[j+k]
		switch {
		case k < 2:
			if c != esc[k] {
				return 0, scanOther
			}
			continue
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, scanOther
		}
		r = r<<4 | rune(c)
	}
	return r, scanOK
}

func skipJSONSpace(data []byte, i int) int {
	for i < len(data) && isJSONSpace(data[i]) {
		i++
	}
	return i
}
