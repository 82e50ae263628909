package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"github.com/guardrail-db/guardrail/internal/dataset"
)

// TestInteractiveFullDuplex: a client that sends one row and waits for
// its verdict before sending the next gets every verdict while its body
// is still open. Verdicts are held back until the handler reads the body
// again, so this fails if that read stops flushing.
func TestInteractiveFullDuplex(t *testing.T) {
	s, _ := newPostalServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rows := [][2]string{
		{"94704", "Berkeley"},
		{"94704", "Oakland"},
		{"10001", "New York"},
	}
	cases := []struct {
		name, path, ct, head string
		line                 func(i int, zip, city string) string // request line of row i
		want                 func(i int, zip, city string) string // a prefix of row i's output line
	}{
		{"ndjson-check", "/v1/check", "application/x-ndjson", "",
			func(_ int, zip, city string) string { return fmt.Sprintf(`{"PostalCode":%q,"City":%q}`, zip, city) },
			func(i int, _, _ string) string { return fmt.Sprintf(`{"row":%d,`, i) }},
		{"csv-check", "/v1/check", "text/csv", "PostalCode,City,State\n",
			func(_ int, zip, city string) string { return zip + "," + city + ",CA" },
			func(i int, _, _ string) string { return fmt.Sprintf(`{"row":%d,`, i) }},
		{"csv-rectify", "/v1/rectify", "text/csv", "PostalCode,City,State\n",
			func(_ int, zip, city string) string { return zip + "," + city + ",CA" },
			func(_ int, zip, _ string) string { return zip + "," }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pr, pw := io.Pipe()
			defer pw.Close() // un-stalls the server before ts.Close waits on it
			req, err := http.NewRequest("POST", ts.URL+c.path+"?dataset=postal", pr)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", c.ct)
			lines := make(chan string, 16)
			go func() {
				defer close(lines)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return
				}
				defer resp.Body.Close()
				br := bufio.NewReader(resp.Body)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					lines <- line
				}
			}()
			next := func(what string) string {
				select {
				case line, ok := <-lines:
					if !ok {
						t.Fatalf("response ended before %s", what)
					}
					return line
				case <-time.After(5 * time.Second):
					t.Fatalf("no %s within 5s while the request body is open", what)
				}
				return ""
			}
			if _, err := io.WriteString(pw, c.head); err != nil {
				t.Fatal(err)
			}
			for i, r := range rows {
				if _, err := io.WriteString(pw, c.line(i, r[0], r[1])+"\n"); err != nil {
					t.Fatal(err)
				}
				got := next(fmt.Sprintf("output for row %d", i))
				if c.path == "/v1/rectify" && i == 0 {
					if got != c.head {
						t.Fatalf("first line %q, want the CSV header", got)
					}
					got = next("output for row 0")
				}
				if want := c.want(i, r[0], r[1]); !strings.HasPrefix(got, want) {
					t.Fatalf("row %d: got %q, want a line starting %q", i, got, want)
				}
			}
			_ = pw.Close()
			for range lines {
			}
		})
	}
}

// TestAppendJSONString: the hand-written string encoder matches
// encoding/json byte for byte on every escaping rule, and on random
// strings of bytes.
func TestAppendJSONString(t *testing.T) {
	cases := []string{
		"", "plain", `"quoted" \ back/slash`, "<a href=\"x\">&amp;</a>",
		"\x00\x01\x1f\x7f\b\f\n\r\t", "line\u2028sep\u2029par", "bad\xffutf\xc3",
		"\xe2\x80", "caf\u00e9 \U0001F600", "\ufffd",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = byte(rng.Intn(256))
			if rng.Intn(3) == 0 {
				b[j] = "\x00\"\\<>&\xe2\x80\xa8\xa9"[rng.Intn(10)]
			}
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestAppendVerdict: verdict and summary lines equal json.Encoder's
// output for the equivalent structs, omitempty fields and the rectify
// values object included.
func TestAppendVerdict(t *testing.T) {
	schema := dataset.New("t", []string{"b<", "a\u2028", "c"})
	schema.Intern(0, "x&y")
	b := newRowBuf(schema)
	b.setFromRecord([]int{0, 1, 2}, [][]byte{[]byte("x&y"), []byte("unseen\xff"), nil})
	viols := []apiViolation{{Stmt: 3, Attr: "b<", Expected: "x&y", Actual: "\u2029"}, {Attr: "c"}}
	for _, v := range []verdict{
		{Row: 0, Violations: []apiViolation{}},
		{Row: 7, Flagged: true, Violations: viols, Changed: 2},
		{Row: 12, Violations: []apiViolation{}, Error: "decoding row: <bad> & \xff"},
	} {
		for _, vals := range []*rowBuf{nil, b} {
			var values map[string]string
			if vals != nil {
				values = vals.decodeMap()
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(struct {
				Row        int               `json:"row"`
				Flagged    bool              `json:"flagged"`
				Violations []apiViolation    `json:"violations"`
				Changed    int               `json:"changed,omitempty"`
				Values     map[string]string `json:"values,omitempty"`
				Error      string            `json:"error,omitempty"`
			}{v.Row, v.Flagged, v.Violations, v.Changed, values, v.Error}); err != nil {
				t.Fatal(err)
			}
			if got := appendVerdict(nil, &v, vals, sortedAttrs(schema)); !bytes.Equal(got, want.Bytes()) {
				t.Errorf("appendVerdict:\ngot  %s\nwant %s", got, want.Bytes())
			}
		}
	}
	sum := batchSummary{Rows: 10, Flagged: 3, Violations: 4, Changed: 0}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(struct {
		Summary batchSummary `json:"summary"`
	}{sum}); err != nil {
		t.Fatal(err)
	}
	if got := appendSummary(nil, sum); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("appendSummary:\ngot  %s\nwant %s", got, want.Bytes())
	}
}

// TestFlatScanner: the scanner accepts exactly the flat objects of
// strings and nulls, asks for more input when cut short, and hands every
// other value to encoding/json; what it accepts decodes as json.Unmarshal
// decodes it.
func TestFlatScanner(t *testing.T) {
	cases := []struct {
		in string
		st scanStatus
		n  int
	}{
		{`{}`, scanOK, 2},
		{`{ }x`, scanOK, 3},
		{`{"a":"b"}`, scanOK, 9},
		{"{ \"a\" :\t\"b\" ,\n\"c\":\"\" }\n", scanOK, 22},
		{`{"a":"b","a":"c"}  {"x":"y"}`, scanOK, 17},
		{`{"é":"ü"}`, scanOK, 11},
		{`{"a":null,"b":"x"}`, scanOK, 18},
		{`{"a":"b\"c\\d\/e\b\f\n\r\t"}`, scanOK, 28},
		{`{"a\u0041":"caf\u00E9 \ud83d\ude00"}`, scanOK, 36},
		{`{"a":"\ud83d","b":"\ude00\ud83dx","c":"\ud83d\u0041","d":"\ud83d\n"}`, scanOK, 68},
		{"{\"a\":\"\xff\xe2\x80\"}", scanOK, 11},
		{"{\"a\":\"\xed\xa0\x80\"}", scanOK, 11},
		{``, scanShort, 0},
		{`{"a":"b"`, scanShort, 0},
		{`{"a":"b`, scanShort, 0},
		{`{"a"`, scanShort, 0},
		{`{`, scanShort, 0},
		{`{"a":"b",`, scanShort, 0},
		{`{"a":nu`, scanShort, 0},
		{`{"a":"\`, scanShort, 0},
		{`{"a":"\u00`, scanShort, 0},
		{`{"a":"\ud83d`, scanShort, 0},
		{`{"a":"\ud83d\`, scanShort, 0},
		{`{"a":"\ud83d\ude`, scanShort, 0},
		{"{\"a\":\"\xe2\x80", scanShort, 0},
		{`null`, scanOther, 0},
		{`["a"]`, scanOther, 0},
		{`{"a":1}`, scanOther, 0},
		{`{"a":nulx}`, scanOther, 0},
		{`{"a":true}`, scanOther, 0},
		{`{null:"a"}`, scanOther, 0},
		{`{"a":"\'"}`, scanOther, 0},
		{`{"a":"\x41"}`, scanOther, 0},
		{`{"a":"\u00g1"}`, scanOther, 0},
		{`{"a":"\ud83d\u00g1"}`, scanOther, 0},
		{"{\"a\":\"b\x01\"}", scanOther, 0},
		{"{\"a\":\"\\n\x01\"}", scanOther, 0},
		{`{"a":"b",}`, scanOther, 0},
		{`{"a":"b" "c":"d"}`, scanOther, 0},
		{`{"a":{"b":"c"}}`, scanOther, 0},
	}
	var sc flatScanner
	for _, c := range cases {
		n, st := sc.scan([]byte(c.in))
		if st != c.st || n != c.n {
			t.Errorf("scan(%q) = %d, %v; want %d, %v", c.in, n, st, c.n, c.st)
			continue
		}
		if st == scanOK {
			checkScanMatchesUnmarshal(t, []byte(c.in[:n]), &sc)
		}
	}
}

// checkScanMatchesUnmarshal fails unless the pairs sc scanned from obj,
// the last of a repeated key winning, equal json.Unmarshal of obj into a
// map.
func checkScanMatchesUnmarshal(t *testing.T, obj []byte, sc *flatScanner) {
	t.Helper()
	var want map[string]string
	if err := json.Unmarshal(obj, &want); err != nil {
		t.Fatalf("scanner accepted %q, json.Unmarshal rejects it: %v", obj, err)
	}
	got := make(map[string]string, len(sc.pairs))
	for _, p := range sc.pairs {
		got[string(sc.text(obj, p.k))] = string(sc.text(obj, p.v))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner read %q as %q, json.Unmarshal as %q", obj, got, want)
	}
}

// TestNDJSONLongRow: a row far longer than one read of the body, arriving
// a byte per read, decodes like any other and is scanned at most twice,
// not again after every read; the rows after it are read as usual.
func TestNDJSONLongRow(t *testing.T) {
	schema, err := dataset.FromCSV(strings.NewReader(postalCSV), "postal")
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", 1<<20)
	body := `{"City":"` + long + `","PostalCode":"94704"}` + "\n" + `{"PostalCode":"94704","City":"Oakland"}` + "\n"
	nd := &ndjsonReader{r: iotest.OneByteReader(strings.NewReader(body))}
	b := newRowBuf(schema)
	for i, want := range []map[string]string{
		{"PostalCode": "94704", "City": long, "State": ""},
		{"PostalCode": "94704", "City": "Oakland", "State": ""},
	} {
		if err := nd.readRow(b); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if got := b.decodeMap(); !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d decoded wrongly (City %d bytes)", i, len(got["City"]))
		}
	}
	if err := nd.readRow(b); err != io.EOF {
		t.Fatalf("after the last row: %v, want EOF", err)
	}
	if nd.scanned > 2*len(body) {
		t.Errorf("scanned %d bytes of a %d-byte body", nd.scanned, len(body))
	}
}

// FuzzServeBatch drives arbitrary NDJSON and CSV bodies through both
// streaming endpoints. Beyond not panicking, every response must hold one
// verdict per row up to the first error — as many rows as encoding/json
// (or the CSV reader) finds in the body — with the error line's text the
// reference decoder's and summary counts that match the lines; CSV
// rectify must return as many rows as CSV check verdicts, and an NDJSON
// body read a few bytes at a time must get the same response. Every line
// the fast NDJSON scanner accepts must decode as json.Unmarshal decodes
// it, and the string encoder must match encoding/json on the body's bytes.
func FuzzServeBatch(f *testing.F) {
	for _, seed := range []string{
		goldenNDJSON,
		`{"PostalCode":"94704","City":"Oakland"}` + "\n" + `{"PostalCode":"94704"}`,
		`{"PostalCode":"94704","Bogus":"x"}`,
		`{"a":1} {"b":2}`,
		`{"PostalCode":"9470\u0034","City":"\ud83d\ude00\ud83d x\u00e9\/","State":null}` + "\n" + `{"City":"\ude00"}`,
		postalCSV,
		"PostalCode,City,State\n94704,\"Oak\nland\",CA\nshort\n",
		"City,State,PostalCode\r\n<&>,\xff,\u2028\r\n",
	} {
		f.Add([]byte(seed), strings.Contains(seed, "PostalCode,") || strings.HasPrefix(seed, "City,"))
	}
	reg := NewRegistry(nil)
	if _, _, err := reg.Load("postal", []byte(postalCSV), []byte(postalProg)); err != nil {
		f.Fatal(err)
	}
	h := New(Config{Registry: reg, FlightSize: -1}).Handler()
	schema := mustGet(f, reg, "postal").Schema
	post := func(path, ct string, body io.Reader) *http.Response {
		req := httptest.NewRequest("POST", path+"?dataset=postal", body)
		req.Header.Set("Content-Type", ct)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Result()
	}
	f.Fuzz(func(t *testing.T, body []byte, isCSV bool) {
		want, err := json.Marshal(string(body))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, string(body)); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", body, got, want)
		}
		var sc flatScanner
		for _, line := range bytes.Split(body, []byte("\n")) {
			line = bytes.TrimLeft(line, " \t\r")
			if n, st := sc.scan(line); st == scanOK {
				checkScanMatchesUnmarshal(t, line[:n], &sc)
			}
		}

		ct := "application/x-ndjson"
		rows, errText := referenceNDJSON(body, schema)
		if isCSV {
			ct = "text/csv"
			rows, errText = referenceCSV(body, schema)
		}
		check := post("/v1/check", ct, bytes.NewReader(body))
		out, _ := io.ReadAll(check.Body)
		if rows < 0 { // a bad CSV header
			if check.StatusCode != http.StatusBadRequest {
				t.Fatalf("bad header: status %d, want 400\n%s", check.StatusCode, out)
			}
			return
		}
		checkVerdictStream(t, out, rows, errText)
		if !isCSV {
			checkVerdictStream(t, readAll(t, post("/v1/rectify", ct, bytes.NewReader(body))), rows, errText)
			// Rows split across reads of the body decode as whole ones.
			n := 1 + len(body)%16
			split := readAll(t, post("/v1/check", ct, chunkReader{bytes.NewReader(body), n}))
			if !bytes.Equal(split, out) {
				t.Fatalf("body read %d bytes at a time:\n%s\nwhole:\n%s", n, split, out)
			}
			return
		}
		rect := post("/v1/rectify", ct, bytes.NewReader(body))
		got, err := dataset.NewReader(rect.Body)
		if err != nil {
			t.Fatalf("rectify output has no header: %v", err)
		}
		n := 0
		for ; ; n++ {
			if _, err := got.Read(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("rectify output row %d: %v", n, err)
			}
		}
		if n != rows {
			t.Fatalf("rectify wrote %d rows, check found %d", n, rows)
		}
		if tr := rect.Trailer.Get(errorTrailer); tr != errText {
			t.Fatalf("rectify trailer %q, want %q", tr, errText)
		}
	})
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

func mustGet(f *testing.F, reg *Registry, name string) *Entry {
	e, ok := reg.Get(name)
	if !ok {
		f.Fatalf("%s not registered", name)
	}
	return e
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// referenceNDJSON counts the rows a json.Decoder finds in body before
// the first undecodable value or unknown key, and that error's text ("" at
// a clean end). A row with several unknown keys names the least.
func referenceNDJSON(body []byte, schema *dataset.Relation) (int, string) {
	dec := json.NewDecoder(bytes.NewReader(body))
	for n := 0; ; n++ {
		var m map[string]string
		if err := dec.Decode(&m); err == io.EOF {
			return n, ""
		} else if err != nil {
			return n, "decoding row: " + err.Error()
		}
		if msg := referenceUnknown(m, schema); msg != "" {
			return n, msg
		}
	}
}

// referenceUnknown is the error text for a decoded row's unknown keys,
// naming the least; "" when every key is an attribute.
func referenceUnknown(m map[string]string, schema *dataset.Relation) string {
	var unknown []string
	for k := range m {
		if schema.AttrIndex(k) < 0 {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return ""
	}
	return fmt.Sprintf("unknown attribute %q", slices.Min(unknown))
}

// singleMaxBody is FuzzServeSingle's MaxBody, small enough that the
// fuzzer reaches the limit often.
const singleMaxBody = 64

// FuzzServeSingle posts arbitrary application/json bodies to /v1/check
// and /v1/rectify on a server with a small MaxBody, and compares each
// response with referenceSingle: a json.Decoder that sees at most MaxBody
// bytes, then the program's AST run on the decoded row.
func FuzzServeSingle(f *testing.F) {
	for _, seed := range []string{
		`{"PostalCode":"94704","City":"Oakland","State":"CA"}`,
		`{"PostalCode":"94704","City":"Berkeley","State":"CA"}`,
		`{"PostalCode":"94110"}`,
		`{"Zip":"1","Bogus":"2","City":"x"}`,
		`{"City":"New York","State":null} trailing`,
		`{"City":`,
		`{"City":1}`,
		`[]`,
		"",
		" \t\r\n",
		`{"City":"` + strings.Repeat("x", singleMaxBody) + `"}`,
		`{"PostalCode":"10001"}` + strings.Repeat(" ", singleMaxBody),
		`123456789012345678901234567890123456789012345678901234567890123456789`,
	} {
		f.Add([]byte(seed))
	}
	reg := NewRegistry(nil)
	if _, _, err := reg.Load("postal", []byte(postalCSV), []byte(postalProg)); err != nil {
		f.Fatal(err)
	}
	h := New(Config{Registry: reg, FlightSize: -1, MaxBody: singleMaxBody}).Handler()
	e := mustGet(f, reg, "postal")
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/check", "/v1/rectify"} {
			req := httptest.NewRequest("POST", path+"?dataset=postal", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			status, errText, want := referenceSingle(body, e, path == "/v1/rectify")
			if rec.Code != status {
				t.Fatalf("%s: status %d, want %d\n%s", path, rec.Code, status, rec.Body)
			}
			if errText != "" {
				var got struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got.Error != errText {
					t.Fatalf("%s: error body %s, want error %q", path, rec.Body, errText)
				}
				continue
			}
			var got singleResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("%s: response does not parse: %v\n%s", path, err, rec.Body)
			}
			got.Dataset, got.Fingerprint, got.Engine = "", "", ""
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: response %+v, want %+v", path, got, want)
			}
		}
	})
}

// errBodyTooLarge stands for the read error past the body limit.
var errBodyTooLarge = errors.New("body too large")

// referenceSingle is the single-row JSON contract: 413 when the decoder
// needs a byte past MaxBody, 400 "decoding row: <err>" when the first value
// does not decode into an object of strings, 400 naming the least unknown
// key, and otherwise 200 with the AST program's verdict on the row (and,
// for rectify, the repaired row and the count of changed cells).
func referenceSingle(body []byte, e *Entry, rectify bool) (int, string, singleResponse) {
	var r io.Reader = bytes.NewReader(body)
	if len(body) > singleMaxBody {
		r = io.MultiReader(bytes.NewReader(body[:singleMaxBody]), iotest.ErrReader(errBodyTooLarge))
	}
	var m map[string]string
	if err := json.NewDecoder(r).Decode(&m); errors.Is(err, errBodyTooLarge) {
		return http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", singleMaxBody), singleResponse{}
	} else if err != nil {
		return http.StatusBadRequest, "decoding row: " + err.Error(), singleResponse{}
	}
	if msg := referenceUnknown(m, e.Schema); msg != "" {
		return http.StatusBadRequest, msg, singleResponse{}
	}
	enc := dataset.NewEncoder(e.Schema)
	row := make([]int32, e.Schema.NumAttrs())
	for a := range row {
		row[a] = enc.Encode(a, m[e.Schema.Attr(a)])
	}
	p := e.Program()
	resp := singleResponse{Violations: []apiViolation{}}
	for _, v := range p.Detect(row) {
		resp.Flagged = true
		resp.Violations = append(resp.Violations, apiViolation{
			Stmt:     v.Stmt,
			Attr:     e.Schema.Attr(v.Attr),
			Expected: e.Schema.Dict(v.Attr).Value(v.Expected),
			Actual:   enc.Decode(v.Attr, v.Actual),
		})
	}
	if !rectify {
		return http.StatusOK, "", resp
	}
	fixed := slices.Clone(row)
	p.Rectify(fixed)
	resp.Row = map[string]string{}
	for a, c := range fixed {
		if c != row[a] {
			resp.Changed++
		}
		resp.Row[e.Schema.Attr(a)] = enc.Decode(a, c)
	}
	return http.StatusOK, "", resp
}

// referenceCSV counts body's CSV rows before the first malformed one,
// and that error's text; -1 rows means the header is rejected.
func referenceCSV(body []byte, schema *dataset.Relation) (int, string) {
	cr, err := dataset.NewReader(bytes.NewReader(body))
	if err == nil {
		_, err = dataset.NewEncoder(schema).MapHeader(cr.Header())
	}
	if err != nil {
		return -1, ""
	}
	for n := 0; ; n++ {
		if _, err := cr.Read(); err == io.EOF {
			return n, ""
		} else if err != nil {
			return n, err.Error()
		}
	}
}

// checkVerdictStream checks an NDJSON verdict stream: rows verdict lines
// numbered from 0, an error line when errText is set, and a summary whose
// counts match the lines.
func checkVerdictStream(t *testing.T, out []byte, rows int, errText string) {
	t.Helper()
	lines := strings.SplitAfter(string(out), "\n")
	if lines[len(lines)-1] != "" {
		t.Fatalf("response does not end in a newline:\n%s", out)
	}
	lines = lines[:len(lines)-1]
	wantLines := rows + 1
	if errText != "" {
		wantLines++
	}
	if len(lines) != wantLines {
		t.Fatalf("%d lines for %d rows (error %q):\n%s", len(lines), rows, errText, out)
	}
	var tally batchSummary
	for i, line := range lines[:len(lines)-1] {
		var v verdict
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", i, err, line)
		}
		if v.Row != i {
			t.Fatalf("line %d has row %d", i, v.Row)
		}
		if i == rows {
			if v.Error != errText {
				t.Fatalf("error line %q, want %q", v.Error, errText)
			}
			continue
		}
		if v.Error != "" {
			t.Fatalf("row %d: unexpected error %q", i, v.Error)
		}
		tally.add(v)
	}
	var sum struct {
		Summary batchSummary `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("summary line: %v\n%s", err, lines[len(lines)-1])
	}
	if sum.Summary != tally {
		t.Fatalf("summary %+v, lines tally %+v", sum.Summary, tally)
	}
}
