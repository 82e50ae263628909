package serve

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/obs"
)

// The in-test twin of examples/constraints/postal.{csv,gr}: the last row
// violates the PostalCode→City dependency.
const postalCSV = `PostalCode,City,State
94704,Berkeley,CA
94704,Berkeley,CA
94110,San Francisco,CA
94110,San Francisco,CA
10001,New York,NY
10001,New York,NY
94704,Oakland,CA
`

const postalProg = `GIVEN PostalCode ON City HAVING
  IF PostalCode = "94704" THEN City <- "Berkeley";
  IF PostalCode = "94110" THEN City <- "San Francisco";
  IF PostalCode = "10001" THEN City <- "New York";
GIVEN City ON State HAVING
  IF City = "Berkeley" THEN State <- "CA";
  IF City = "San Francisco" THEN State <- "CA";
  IF City = "New York" THEN State <- "NY";
`

// newPostalServer builds a Server with the postal program registered and
// a fresh obs registry, leaving any cfg overrides in place.
func newPostalServer(t testing.TB, cfg Config) (*Server, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	if cfg.Obs == nil {
		cfg.Obs = reg
	} else {
		reg = cfg.Obs
	}
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry(reg)
	}
	if _, _, err := cfg.Registry.Load("postal", []byte(postalCSV), []byte(postalProg)); err != nil {
		t.Fatal(err)
	}
	return New(cfg), reg
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestSingleJSONCheck: one violating row as a bare JSON object comes back
// flagged with the violation decoded to schema names and string values,
// and the response pins the program version in headers and body.
func TestSingleJSONCheck(t *testing.T) {
	s, _ := newPostalServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/check?dataset=postal",
		`{"PostalCode":"94704","City":"Oakland","State":"CA"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(engineHeader); got != "compiled" {
		t.Errorf("%s = %q, want compiled", engineHeader, got)
	}
	var out singleResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("response does not parse: %v\n%s", err, body)
	}
	if out.Dataset != "postal" || !out.Flagged {
		t.Errorf("dataset=%q flagged=%v, want postal/true", out.Dataset, out.Flagged)
	}
	if out.Fingerprint != resp.Header.Get(fingerprintHeader) {
		t.Errorf("body fingerprint %q != header %q", out.Fingerprint, resp.Header.Get(fingerprintHeader))
	}
	want := apiViolation{Stmt: 0, Attr: "City", Expected: "Berkeley", Actual: "Oakland"}
	if len(out.Violations) != 1 || out.Violations[0] != want {
		t.Errorf("violations = %+v, want [%+v]", out.Violations, want)
	}
	if out.Changed != 0 || out.Row != nil {
		t.Errorf("check response carries rectify fields: %+v", out)
	}

	// A clean row: not flagged, no violations.
	_, body = postJSON(t, ts.URL+"/v1/check?dataset=postal",
		`{"PostalCode":"94110","City":"San Francisco","State":"CA"}`)
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Flagged || len(out.Violations) != 0 {
		t.Errorf("clean row flagged: %+v", out)
	}

	// The sole registered program is the default dataset.
	resp, body = postJSON(t, ts.URL+"/v1/check", `{"PostalCode":"94704","City":"Oakland"}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("default-dataset status = %d\n%s", resp.StatusCode, body)
	}
}

// TestSingleJSONRectify: the violating cell is overwritten and the
// repaired row is echoed back.
func TestSingleJSONRectify(t *testing.T) {
	s, _ := newPostalServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/rectify?dataset=postal",
		`{"PostalCode":"94704","City":"Oakland","State":"CA"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}
	var out singleResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Flagged || out.Changed != 1 {
		t.Errorf("flagged=%v changed=%d, want true/1", out.Flagged, out.Changed)
	}
	want := map[string]string{"PostalCode": "94704", "City": "Berkeley", "State": "CA"}
	if len(out.Row) != len(want) {
		t.Fatalf("row = %v, want %v", out.Row, want)
	}
	for k, v := range want {
		if out.Row[k] != v {
			t.Errorf("row[%s] = %q, want %q", k, out.Row[k], v)
		}
	}
}

// TestNDJSONBatch: a newline-delimited batch streams one verdict per row
// plus a final summary line; out-of-dictionary values round-trip through
// the sentinel code back to the client's raw string.
func TestNDJSONBatch(t *testing.T) {
	s, _ := newPostalServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rows := strings.Join([]string{
		`{"PostalCode":"94704","City":"Berkeley","State":"CA"}`,
		`{"PostalCode":"94704","City":"Oakland","State":"CA"}`,
		`{"PostalCode":"94704","City":"Nowheresville","State":"CA"}`, // not in any dictionary
	}, "\n") + "\n"
	resp, err := http.Post(ts.URL+"/v1/check?dataset=postal", "application/x-ndjson", strings.NewReader(rows))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 verdicts + summary:\n%s", len(lines), body)
	}
	var vs [3]verdict
	for i := 0; i < 3; i++ {
		if err := json.Unmarshal([]byte(lines[i]), &vs[i]); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", i, err, lines[i])
		}
		if vs[i].Row != i || vs[i].Error != "" {
			t.Errorf("line %d: row=%d error=%q", i, vs[i].Row, vs[i].Error)
		}
	}
	if vs[0].Flagged {
		t.Errorf("clean row flagged: %+v", vs[0])
	}
	if !vs[1].Flagged || vs[1].Violations[0].Actual != "Oakland" {
		t.Errorf("in-dictionary violation: %+v", vs[1])
	}
	if !vs[2].Flagged || vs[2].Violations[0].Actual != "Nowheresville" {
		t.Errorf("out-of-dictionary actual value should decode to the raw string: %+v", vs[2])
	}
	var sum struct {
		Summary batchSummary `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[3]), &sum); err != nil {
		t.Fatalf("summary line: %v\n%s", err, lines[3])
	}
	want := batchSummary{Rows: 3, Flagged: 2, Violations: 2, Changed: 0}
	if sum.Summary != want {
		t.Errorf("summary = %+v, want %+v", sum.Summary, want)
	}
}

// TestCSVCheck: a CSV batch produces the same verdict stream, with the
// fixture's known single violation on the last row.
func TestCSVCheck(t *testing.T) {
	s, _ := newPostalServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/check?dataset=postal", "text/csv", strings.NewReader(postalCSV))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 7 verdicts + summary:\n%s", len(lines), body)
	}
	for i := 0; i < 7; i++ {
		var v verdict
		if err := json.Unmarshal([]byte(lines[i]), &v); err != nil {
			t.Fatal(err)
		}
		if wantFlagged := i == 6; v.Flagged != wantFlagged {
			t.Errorf("row %d flagged = %v, want %v", i, v.Flagged, wantFlagged)
		}
	}
	var sum struct {
		Summary batchSummary `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[7]), &sum); err != nil {
		t.Fatal(err)
	}
	if want := (batchSummary{Rows: 7, Flagged: 1, Violations: 1}); sum.Summary != want {
		t.Errorf("summary = %+v, want %+v", sum.Summary, want)
	}
}

// TestCSVRectifyMatchesStreamCSV: the daemon's streaming CSV rectify is
// byte-for-byte the offline core.Guard.StreamCSV rectify pass — same
// rows, same repairs, same encoding.
func TestCSVRectifyMatchesStreamCSV(t *testing.T) {
	s, _ := newPostalServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/rectify?dataset=postal", "text/csv", strings.NewReader(postalCSV))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Errorf("Content-Type = %q, want text/csv", ct)
	}

	// The offline pass encodes against its own copy of the schema, read
	// only, exactly as the daemon encodes against the served entry's.
	rel, err := dataset.FromCSV(strings.NewReader(postalCSV), "postal")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := dsl.Parse(postalProg, rel)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := core.NewGuard(prog, core.Rectify).StreamCSV(strings.NewReader(postalCSV), &want, rel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("serve rectify differs from core.StreamCSV:\nserve:\n%s\ncore:\n%s", got, want.Bytes())
	}
}

// TestCSVRectifyWritesAsEncodingCSV: the CSV rectify response is byte for
// byte what encoding/csv's Writer writes for the rectified records, for
// values it quotes or writes specially — a comma, a quote, a newline,
// carriage returns, a leading space, tab or U+00A0, the `\.` marker —
// whether they are in the schema's dictionary or not, and for empty cells.
// The program rewrites v to "a,b" wherever k is "fix".
func TestCSVRectifyWritesAsEncodingCSV(t *testing.T) {
	awkward := []string{"a,b", `say "hi"`, "two\nlines", "cr\rin", "x\r\ny", " lead", "\tlead", "\u00a0lead", `\.`, "plain"}
	writeCSV := func(recs [][]string) []byte {
		var b bytes.Buffer
		if err := csv.NewWriter(&b).WriteAll(recs); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	schemaRecs := [][]string{{"k", "v"}, {"fix", "a,b"}}
	inRecs := [][]string{{"v", "k"}}
	for i, v := range awkward {
		schemaRecs = append(schemaRecs, []string{fmt.Sprint("k", i), v})
		inRecs = append(inRecs, []string{v, fmt.Sprint("k", i)}, []string{v + "!", ""}, []string{"!" + v, "fix"})
	}
	inRecs = append(inRecs, []string{"", ""}, []string{"", "fix"})
	r := NewRegistry(nil)
	if _, _, err := r.Load("awk", writeCSV(schemaRecs), []byte(`GIVEN k ON v HAVING IF k = "fix" THEN v <- "a,b";`)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Registry: r}).Handler())
	defer ts.Close()

	in := writeCSV(inRecs)
	resp, err := http.Post(ts.URL+"/v1/rectify?dataset=awk", "text/csv", bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	// The expected records are the input as encoding/csv reads it back
	// (a quoted \r\n reads as \n), rectified.
	want, err := csv.NewReader(bytes.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range want[1:] {
		if rec[1] == "fix" {
			rec[0] = "a,b"
		}
	}
	if w := writeCSV(want); !bytes.Equal(got, w) {
		t.Errorf("serve rectify wrote\n%q\nencoding/csv writes\n%q", got, w)
	}
}

// TestChangedMatchesApply: with two statements on one attribute, a row
// can be rewritten twice and come back as it arrived. The changed counts
// of every request form, the batch summaries and serve.cells_changed all
// count cells whose final value differs, exactly as core.Guard.Apply's
// CellsChanged does on the same rows.
func TestChangedMatchesApply(t *testing.T) {
	const schemaCSV = "a,b,c\n0,0,1\n0,0,0\n1,1,1\n1,0,0\n"
	const prog = "GIVEN a ON b HAVING IF a = \"0\" THEN b <- \"1\";\nGIVEN c ON b HAVING IF c = \"1\" THEN b <- \"0\";\n"
	reg := obs.New()
	r := NewRegistry(reg)
	if _, _, err := r.Load("two", []byte(schemaCSV), []byte(prog)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Registry: r, Obs: reg}).Handler())
	defer ts.Close()

	// applyReport runs the offline guard over the schema rows in rows.
	applyReport := func(strategy core.Strategy, rows ...int) *core.Report {
		t.Helper()
		rel, err := dataset.FromCSV(strings.NewReader(schemaCSV), "two")
		if err != nil {
			t.Fatal(err)
		}
		p, err := dsl.Parse(prog, rel)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.NewGuard(p, strategy).Apply(rel.SelectRows(rows))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	post := func(endpoint, contentType, body string) []string {
		t.Helper()
		resp, err := http.Post(ts.URL+endpoint+"?dataset=two", contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v\n%s", endpoint, resp.StatusCode, err, b)
		}
		return strings.Split(strings.TrimSpace(string(b)), "\n")
	}
	summaryOf := func(line string) batchSummary {
		t.Helper()
		var sum struct {
			Summary batchSummary `json:"summary"`
		}
		if err := json.Unmarshal([]byte(line), &sum); err != nil {
			t.Fatalf("summary line: %v\n%s", err, line)
		}
		return sum.Summary
	}

	rows := []string{`{"a":"0","b":"0","c":"1"}`, `{"a":"0","b":"0","c":"0"}`, `{"a":"1","b":"1","c":"1"}`, `{"a":"1","b":"0","c":"0"}`}
	wantChanged := []int{0, 1, 1, 0}
	total := 0
	for i, row := range rows {
		var out singleResponse
		if err := json.Unmarshal([]byte(strings.Join(post("/v1/rectify", "application/json", row), "\n")), &out); err != nil {
			t.Fatal(err)
		}
		if want := applyReport(core.Rectify, i).CellsChanged; out.Changed != want || want != wantChanged[i] {
			t.Errorf("single row %s: changed %d, Apply %d, want %d", row, out.Changed, want, wantChanged[i])
		}
		total += out.Changed
	}

	lines := post("/v1/rectify", "application/x-ndjson", strings.Join(rows, "\n")+"\n")
	for i, line := range lines[:len(lines)-1] {
		var v verdict
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatal(err)
		}
		if v.Changed != wantChanged[i] {
			t.Errorf("ndjson row %d: changed %d, want %d", i, v.Changed, wantChanged[i])
		}
		total += v.Changed
	}
	rectified := applyReport(core.Rectify, 0, 1, 2, 3)
	want := batchSummary{Rows: 4, Flagged: rectified.RowsFlagged, Violations: 3, Changed: rectified.CellsChanged}
	if got := summaryOf(lines[len(lines)-1]); got != want || want.Changed != 2 {
		t.Errorf("ndjson rectify summary = %+v, want %+v", got, want)
	}

	lines = post("/v1/check", "text/csv", schemaCSV)
	checked := applyReport(core.Ignore, 0, 1, 2, 3)
	want = batchSummary{Rows: 4, Flagged: checked.RowsFlagged, Violations: 3, Changed: checked.CellsChanged}
	if got := summaryOf(lines[len(lines)-1]); got != want {
		t.Errorf("csv check summary = %+v, want %+v", got, want)
	}

	if n := reg.Snapshot().Counters["serve.cells_changed"]; n != int64(total) || total != 4 {
		t.Errorf("serve.cells_changed = %d, responses reported %d, want 4", n, total)
	}
}

// TestCSVRectifyMalformedRowTrailer: a malformed row in a CSV rectify
// body arrives after earlier rows went out under a 200, so the response
// ends there and names the failure in the X-Guardrail-Error trailer; a
// clean body carries no trailer value.
func TestCSVRectifyMalformedRowTrailer(t *testing.T) {
	s, reg := newPostalServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/rectify?dataset=postal", "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body) // trailers are read with the body
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(got)
	}

	resp, got := post("PostalCode,City,State\n94704,Oakland,CA\n94110,San Francisco\n10001,New York,NY\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if want := "PostalCode,City,State\n94704,Berkeley,CA\n"; got != want {
		t.Errorf("body = %q, want %q", got, want)
	}
	if msg := resp.Trailer.Get(errorTrailer); !strings.Contains(msg, "row 1 has 2 fields") {
		t.Errorf("%s trailer = %q, want the row-1 width error", errorTrailer, msg)
	}
	if msg := resp.Header.Get(errorTrailer); msg != "" {
		t.Errorf("%s sent as a header too: %q", errorTrailer, msg)
	}
	if n := reg.Snapshot().Counters["serve.errors"]; n != 1 {
		t.Errorf("serve.errors = %d, want 1", n)
	}

	resp, _ = post(postalCSV)
	if msg := resp.Trailer.Get(errorTrailer); msg != "" {
		t.Errorf("clean body: %s trailer = %q, want empty", errorTrailer, msg)
	}
}

// TestRequestErrors: the error contract — unknown dataset 404, unknown
// attribute 400, malformed JSON 400, oversized single-row body 413, bad
// CSV header 400 — all as JSON error objects that bump serve.errors.
func TestRequestErrors(t *testing.T) {
	s, reg := newPostalServer(t, Config{MaxBody: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, url, ct, body string
		status              int
		msg                 string // the error text, when pinned
	}{
		{"unknown dataset", "/v1/check?dataset=nope", "application/json", `{"City":"x"}`, http.StatusNotFound, ""},
		{"unknown attribute", "/v1/check?dataset=postal", "application/json", `{"Zip":"94704"}`, http.StatusBadRequest, ""},
		{"malformed JSON", "/v1/check?dataset=postal", "application/json", `{"City":`, http.StatusBadRequest, ""},
		{"oversized body", "/v1/check?dataset=postal", "application/json",
			`{"City":"` + strings.Repeat("x", 512) + `"}`, http.StatusRequestEntityTooLarge, ""},
		{"empty body", "/v1/check?dataset=postal", "application/json", "", http.StatusBadRequest, "decoding row: EOF"},
		{"whitespace-only body", "/v1/check?dataset=postal", "application/json", " \t\r\n ", http.StatusBadRequest, "decoding row: EOF"},
		{"bad CSV header", "/v1/check?dataset=postal", "text/csv", "PostalCode,City,Elevation\n1,2,3\n", http.StatusBadRequest, ""},
		{"short CSV header", "/v1/check?dataset=postal", "text/csv", "PostalCode,City\n1,2\n", http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.url, tc.ct, strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d\n%s", tc.name, resp.StatusCode, tc.status, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not a JSON error object: %v\n%s", tc.name, err, body)
		} else if tc.msg != "" && e.Error != tc.msg {
			t.Errorf("%s: error %q, want %q", tc.name, e.Error, tc.msg)
		}
	}
	if n := reg.Snapshot().Counters["serve.errors"]; n != int64(len(cases)) {
		t.Errorf("serve.errors = %d, want %d", n, len(cases))
	}
}

// TestBackpressure429: with a single admission slot held by an in-flight
// streaming request, the next request is rejected immediately with 429
// and Retry-After, and serve.rejected counts it. Releasing the slot
// restores service.
func TestBackpressure429(t *testing.T) {
	s, reg := newPostalServer(t, Config{MaxInflight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only slot: an NDJSON request whose body stays open parks
	// the handler in its row-decode read.
	pr, pw := io.Pipe()
	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/check?dataset=postal", "application/x-ndjson", pr)
		if err != nil {
			done <- result{err: err}
			return
		}
		_, err = io.Copy(io.Discard, resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		done <- result{status: resp.StatusCode, err: err}
	}()
	if _, err := io.WriteString(pw, `{"PostalCode":"94704","City":"Berkeley","State":"CA"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	waitGauge(t, reg, "serve.inflight", 1)

	resp, body := postJSON(t, ts.URL+"/v1/check?dataset=postal", `{"City":"Berkeley"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated gate: status = %d, want 429\n%s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if n := reg.Snapshot().Counters["serve.rejected"]; n != 1 {
		t.Errorf("serve.rejected = %d, want 1", n)
	}

	// Health and metrics stay reachable while the gate is saturated.
	for _, path := range []string{"/healthz", "/metrics"} {
		hr, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, hr.Body)
		_ = hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Errorf("%s while saturated: status = %d", path, hr.StatusCode)
		}
	}

	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got.err != nil || got.status != http.StatusOK {
		t.Fatalf("parked request: status=%d err=%v", got.status, got.err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/check?dataset=postal", `{"PostalCode":"94704","City":"Berkeley"}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after release: status = %d\n%s", resp.StatusCode, body)
	}
}

// waitGauge polls reg until the named gauge reaches want.
func waitGauge(t *testing.T, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Snapshot().Gauges[name] == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("gauge %s never reached %d", name, want)
}

// TestProgramsCRUD: list/get/put/delete round-trip, including the
// changed=true/false reload contract over the API.
func TestProgramsCRUD(t *testing.T) {
	s, _ := newPostalServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// List: the loaded program with its metadata.
	resp, err := http.Get(ts.URL + "/v1/programs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Programs []programInfo `json:"programs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if len(list.Programs) != 1 || list.Programs[0].Name != "postal" ||
		list.Programs[0].Version != 1 || list.Programs[0].Engine != "compiled" {
		t.Fatalf("programs list = %+v", list.Programs)
	}
	fp1 := list.Programs[0].Fingerprint

	// Get: adds the formatted program text and schema.
	resp, err = http.Get(ts.URL + "/v1/programs/postal")
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		programInfo
		Program string   `json:"program"`
		Schema  []string `json:"schema"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if !strings.Contains(got.Program, "GIVEN PostalCode ON City") {
		t.Errorf("program text = %q", got.Program)
	}
	if len(got.Schema) != 3 || got.Schema[0] != "PostalCode" {
		t.Errorf("schema = %v", got.Schema)
	}

	// Put a semantically different program: changed, version advances.
	uploadSchema := func(schemaCSV, prog string) (int, map[string]json.RawMessage) {
		t.Helper()
		reqBody, err := json.Marshal(map[string]string{"schema_csv": schemaCSV, "program": prog})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/programs/postal", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		return resp.StatusCode, m
	}
	upload := func(prog string) (int, map[string]json.RawMessage) {
		t.Helper()
		return uploadSchema(postalCSV, prog)
	}
	shadowed := "GIVEN PostalCode ON City HAVING\n  IF PostalCode = \"94704\" THEN City <- \"Berkeley\";\n"
	status, m := upload(shadowed)
	if status != http.StatusOK {
		t.Fatalf("put: status = %d: %s", status, m["error"])
	}
	if string(m["changed"]) != "true" {
		t.Errorf("first put changed = %s, want true", m["changed"])
	}
	var fp2 string
	_ = json.Unmarshal(m["fingerprint"], &fp2)
	if fp2 == fp1 {
		t.Errorf("fingerprint unchanged across a semantic change: %s", fp2)
	}

	// Same program again: a no-op.
	status, m = upload(shadowed)
	if status != http.StatusOK || string(m["changed"]) != "false" {
		t.Errorf("repeat put: status=%d changed=%s, want 200/false", status, m["changed"])
	}

	// Unparseable program: 422, live entry untouched.
	status, m = upload("GIVEN Nonsense ON")
	if status != http.StatusUnprocessableEntity {
		t.Errorf("bad program: status = %d, want 422", status)
	}
	if e, _ := s.Registry().Get("postal"); e.FingerprintHex() != fp2 {
		t.Errorf("failed upload disturbed the live entry")
	}

	// A schema naming a column twice: 422, live entry untouched.
	if status, _ := uploadSchema("PostalCode,City,City\n94704,Berkeley,CA\n", shadowed); status != http.StatusUnprocessableEntity {
		t.Errorf("duplicate schema column: status = %d, want 422", status)
	}
	if e, _ := s.Registry().Get("postal"); e.FingerprintHex() != fp2 {
		t.Errorf("failed upload disturbed the live entry")
	}

	// Delete, then 404 on both get and delete.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/programs/postal", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status = %d", resp.StatusCode)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("second delete: status = %d, want 404", resp.StatusCode)
	}
}

// TestMetricsEndpoint: /metrics renders the serve.* series in Prometheus
// text format on the service port.
func TestMetricsEndpoint(t *testing.T) {
	s, _ := newPostalServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, _ = postJSON(t, ts.URL+"/v1/check?dataset=postal", `{"PostalCode":"94704","City":"Oakland"}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "version=0.0.4") {
		t.Errorf("Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	for _, series := range []string{
		"guardrail_serve_requests 1",
		"guardrail_serve_rows 1",
		"guardrail_serve_flagged 1",
		"guardrail_serve_violations 1",
		"guardrail_serve_reloads 1",
		"guardrail_serve_request_check_seconds_bucket{le=",
		"guardrail_serve_request_check_seconds_count 1",
		`guardrail_serve_endpoint_requests{endpoint="check",status="200"} 1`,
		`guardrail_serve_dataset_rows{dataset="postal",endpoint="check",engine="compiled",verdict="flagged"} 1`,
		`guardrail_serve_request_latency_seconds_bucket{dataset="postal",endpoint="check",engine="compiled",le="+Inf"} 1`,
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics missing %q:\n%s", series, body)
		}
	}
}

// TestHealthz: liveness probe.
func TestHealthz(t *testing.T) {
	s, _ := newPostalServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
}

// TestRunDrain: cancelling Run's context while a streaming request is in
// flight lets the request finish its full response, and Run returns nil —
// the clean-drain contract.
func TestRunDrain(t *testing.T) {
	s, _ := newPostalServer(t, Config{DrainTimeout: 5 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- s.Run(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Park a streaming request via an open pipe body.
	pr, pw := io.Pipe()
	type result struct {
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/check?dataset=postal", "application/x-ndjson", pr)
		if err != nil {
			done <- result{err: err}
			return
		}
		b, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		done <- result{body: string(b), err: err}
	}()
	if _, err := io.WriteString(pw, `{"PostalCode":"94704","City":"Oakland"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	waitGauge(t, s.cfg.Obs, "serve.inflight", 1)

	cancel() // SIGTERM equivalent: stop accepting, drain in-flight

	// The drain must wait for the parked request; finish it now.
	time.Sleep(20 * time.Millisecond)
	if _, err := io.WriteString(pw, `{"PostalCode":"10001","City":"New York"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}

	got := <-done
	if got.err != nil {
		t.Fatalf("in-flight request dropped during drain: %v", got.err)
	}
	if !strings.Contains(got.body, `"summary"`) || !strings.Contains(got.body, `"rows":2`) {
		t.Errorf("drained response truncated:\n%s", got.body)
	}
	if err := <-ran; err != nil {
		t.Errorf("Run returned %v, want nil (clean drain)", err)
	}
	// New connections are refused after drain.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting after drain")
	}
}

// TestRunDrainDeadline: a request that outlives the drain deadline gets
// force-closed and Run reports the dirty drain.
func TestRunDrainDeadline(t *testing.T) {
	s, _ := newPostalServer(t, Config{DrainTimeout: 50 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- s.Run(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(base+"/v1/check?dataset=postal", "application/x-ndjson", pr)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
	}()
	if _, err := io.WriteString(pw, `{"PostalCode":"94704"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	waitGauge(t, s.cfg.Obs, "serve.inflight", 1)

	cancel()
	err = <-ran
	if err == nil || !strings.Contains(err.Error(), "drain deadline exceeded") {
		t.Errorf("Run = %v, want drain deadline exceeded", err)
	}
	_ = pw.Close()
	<-done
}

// TestFingerprintStability: the same load in a fresh process-independent
// registry produces the same fingerprint — the header is a stable version
// identifier, not a per-boot nonce.
func TestFingerprintStability(t *testing.T) {
	var fps [2]string
	for i := range fps {
		r := NewRegistry(obs.New())
		e, _, err := r.Load("postal", []byte(postalCSV), []byte(postalProg))
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = e.FingerprintHex()
	}
	if fps[0] != fps[1] {
		t.Errorf("fingerprint not stable across loads: %s vs %s", fps[0], fps[1])
	}
	if fps[0] == fmt.Sprintf("%016x", 0) {
		t.Error("fingerprint is zero")
	}
}
