package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the access
// log from concurrent handlers.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func decodeAccessLog(t *testing.T, raw string) []reqRecord {
	t.Helper()
	var out []reqRecord
	for _, line := range strings.Split(strings.TrimRight(raw, "\n"), "\n") {
		if line == "" {
			continue
		}
		var rec reqRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// TestAccessLog: every gated request writes one NDJSON record carrying
// the request ID, dataset, program fingerprint, row counts, and latency.
func TestAccessLog(t *testing.T) {
	var buf syncBuffer
	s, _ := newPostalServer(t, Config{AccessLog: &buf})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, err := http.NewRequest("POST", ts.URL+"/v1/check?dataset=postal",
		strings.NewReader(`{"PostalCode":"94704","City":"Oakland"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestHeader, "client-id-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if got := resp.Header.Get(requestHeader); got != "client-id-1" {
		t.Errorf("request header echo = %q, want client-id-1", got)
	}

	// Batch: 3 NDJSON rows, one flagged.
	batch := `{"PostalCode":"94704","City":"Berkeley","State":"CA"}
{"PostalCode":"94110","City":"San Francisco","State":"CA"}
{"PostalCode":"94704","City":"Oakland","State":"CA"}
`
	bresp, err := http.Post(ts.URL+"/v1/check?dataset=postal", "application/x-ndjson", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, bresp.Body)
	_ = bresp.Body.Close()

	recs := decodeAccessLog(t, buf.String())
	if len(recs) != 2 {
		t.Fatalf("access log has %d records, want 2:\n%s", len(recs), buf.String())
	}
	one := recs[0]
	if one.ID != "client-id-1" || one.Endpoint != "check" || one.Dataset != "postal" ||
		one.Status != 200 || one.RowsIn != 1 || one.RowsFlagged != 1 {
		t.Errorf("single-row record = %+v", one)
	}
	if one.Fingerprint == "" || one.Engine == "" || one.LatencyNS <= 0 || one.Bytes <= 0 {
		t.Errorf("record missing fingerprint/engine/latency/bytes: %+v", one)
	}
	two := recs[1]
	if two.RowsIn != 3 || two.RowsFlagged != 1 {
		t.Errorf("batch record rows = %d/%d, want 3/1", two.RowsIn, two.RowsFlagged)
	}
	if two.ID == "" || two.ID == one.ID {
		t.Errorf("generated ID %q should be unique and non-empty", two.ID)
	}
}

// TestAccessLogRejected: a 429 shed at the gate still produces an access
// log record (status 429, error note) — rejections are exactly the
// traffic an operator greps for.
func TestAccessLogRejected(t *testing.T) {
	var buf syncBuffer
	s, reg := newPostalServer(t, Config{MaxInflight: 1, AccessLog: &buf})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only slot with a stalled streaming request. Closing the
	// pipe un-stalls it; the deferred Close runs before ts.Close, which
	// would otherwise wait forever on the stalled connection when the
	// test fails early.
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest("POST", ts.URL+"/v1/check?dataset=postal", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	// The first verdict line proves the stalled request holds the slot.
	verdict := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			verdict <- err
			return
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		_, err = br.ReadString('\n')
		verdict <- err
		_, _ = io.Copy(io.Discard, br)
	}()
	if _, err := pw.Write([]byte(`{"PostalCode":"94704","City":"Berkeley"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := <-verdict; err != nil {
		t.Fatalf("stalled request's first verdict: %v", err)
	}

	rej, err := http.NewRequest("POST", ts.URL+"/v1/check?dataset=postal", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	rej.Header.Set(requestHeader, "rejected-req")
	resp, err := http.DefaultClient.Do(rej)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get(requestHeader); got != "rejected-req" {
		t.Errorf("429 response should still echo the request ID, got %q", got)
	}
	_ = pw.Close()
	<-done

	var rec *reqRecord
	for _, r := range decodeAccessLog(t, buf.String()) {
		if r.ID == "rejected-req" {
			r := r
			rec = &r
		}
	}
	if rec == nil {
		t.Fatalf("429 not in access log:\n%s", buf.String())
	}
	if rec.Status != 429 || !strings.Contains(rec.Error, "max in-flight") {
		t.Errorf("429 record = %+v", rec)
	}
	snap := reg.Snapshot()
	found := false
	for _, lc := range snap.LabeledCounters {
		if lc.Name == "serve.endpoint.rejected" && lc.Labels[0].Value == "check" && lc.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("serve.endpoint.rejected{endpoint=check} missing: %+v", snap.LabeledCounters)
	}
}

// TestFlightRecorder: /debug/flight returns recent requests, retains
// errors past ring churn, and tracks the slowest requests.
func TestFlightRecorder(t *testing.T) {
	s, _ := newPostalServer(t, Config{FlightSize: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One error (unknown dataset → 404), then enough OK traffic to evict
	// it from the 4-slot recent ring.
	resp, _ := postJSON(t, ts.URL+"/v1/check?dataset=nope", `{}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	for i := 0; i < 6; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/check?dataset=postal", `{"PostalCode":"94704","City":"Berkeley"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}

	fresp, err := http.Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(fresp.Body)
	if cerr := fresp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	var dump flightDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("flight dump: %v\n%s", err, body)
	}
	if dump.Size != 4 || len(dump.Recent) != 4 {
		t.Errorf("recent ring = %d/%d, want 4/4", len(dump.Recent), dump.Size)
	}
	for _, r := range dump.Recent {
		if r.Status != 200 {
			t.Errorf("recent ring should hold only the latest OK requests, got %+v", r)
		}
	}
	found404 := false
	for _, r := range dump.Errors {
		if r.Status == 404 && r.Dataset == "nope" {
			found404 = true
		}
	}
	if !found404 {
		t.Errorf("404 evicted from error sub-ring: %+v", dump.Errors)
	}
	if len(dump.Slowest) != 7 {
		t.Errorf("slowest = %d records, want all 7", len(dump.Slowest))
	}
	for i := 1; i < len(dump.Slowest); i++ {
		if dump.Slowest[i].LatencyNS > dump.Slowest[i-1].LatencyNS {
			t.Errorf("slowest not in descending latency order at %d", i)
		}
	}
}

// TestFlightDisabled: negative FlightSize turns the recorder off; the
// endpoint still answers with empty sections.
func TestFlightDisabled(t *testing.T) {
	s, _ := newPostalServer(t, Config{FlightSize: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, _ = postJSON(t, ts.URL+"/v1/check?dataset=postal", `{"PostalCode":"94704"}`)
	resp, err := http.Get(ts.URL + "/debug/flight")
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
	var dump flightDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Size != 0 || len(dump.Recent) != 0 || len(dump.Errors) != 0 || len(dump.Slowest) != 0 {
		t.Errorf("disabled recorder dumped %+v", dump)
	}
}

// TestTelemetryByteIdentical: with client-supplied request IDs, response
// status, headers, and body are byte-identical whether telemetry (access
// log + flight recorder + obs registry) is on or off — instrumentation
// must never leak into the API surface.
func TestTelemetryByteIdentical(t *testing.T) {
	var buf syncBuffer
	// The quiet server has no obs registry, no access log, no recorder.
	quietReg := NewRegistry(nil)
	if _, _, err := quietReg.Load("postal", []byte(postalCSV), []byte(postalProg)); err != nil {
		t.Fatal(err)
	}
	quiet := New(Config{Registry: quietReg, FlightSize: -1})
	loud, _ := newPostalServer(t, Config{AccessLog: &buf, FlightSize: 8})
	tsQuiet := httptest.NewServer(quiet.Handler())
	defer tsQuiet.Close()
	tsLoud := httptest.NewServer(loud.Handler())
	defer tsLoud.Close()

	cases := []struct {
		name, path, ct, body string
	}{
		{"single-ok", "/v1/check?dataset=postal", "application/json", `{"PostalCode":"94110","City":"San Francisco"}`},
		{"single-flagged", "/v1/rectify?dataset=postal", "application/json", `{"PostalCode":"94704","City":"Oakland"}`},
		{"batch-ndjson", "/v1/check?dataset=postal", "application/x-ndjson",
			`{"PostalCode":"94704","City":"Berkeley"}` + "\n" + `{"PostalCode":"94704","City":"Oakland"}` + "\n"},
		{"batch-csv", "/v1/check?dataset=postal", "text/csv", "PostalCode,City\n94704,Berkeley\n94704,Oakland\n"},
		{"bad-dataset", "/v1/check?dataset=nope", "application/json", `{}`},
	}
	fetch := func(base string, i int, c struct{ name, path, ct, body string }) (int, http.Header, string) {
		req, err := http.NewRequest("POST", base+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", c.ct)
		req.Header.Set(requestHeader, fmt.Sprintf("id-%d", i))
		resp, err := http.DefaultClient.Do(req)
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
		h := resp.Header.Clone()
		h.Del("Date") // wall clock, not API surface
		return resp.StatusCode, h, string(body)
	}
	for i, c := range cases {
		qs, qh, qb := fetch(tsQuiet.URL, i, c)
		ls, lh, lb := fetch(tsLoud.URL, i, c)
		if qs != ls {
			t.Errorf("%s: status %d (telemetry off) != %d (on)", c.name, qs, ls)
		}
		if qb != lb {
			t.Errorf("%s: body differs:\noff: %q\non:  %q", c.name, qb, lb)
		}
		if fmt.Sprint(qh) != fmt.Sprint(lh) {
			t.Errorf("%s: headers differ:\noff: %v\non:  %v", c.name, qh, lh)
		}
	}
	if len(decodeAccessLog(t, buf.String())) != len(cases) {
		t.Errorf("telemetry-on server should have logged %d requests", len(cases))
	}
}

// TestRequestIDSanitized: hostile client IDs are truncated and stripped
// of control characters before reaching headers and logs.
func TestRequestIDSanitized(t *testing.T) {
	var buf syncBuffer
	s, _ := newPostalServer(t, Config{AccessLog: &buf})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	long := strings.Repeat("x", 500)
	req, err := http.NewRequest("POST", ts.URL+"/v1/check?dataset=postal", strings.NewReader(`{"PostalCode":"94704"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(requestHeader, long)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if got := resp.Header.Get(requestHeader); len(got) != reqIDMax {
		t.Errorf("echoed ID length = %d, want truncated to %d", len(got), reqIDMax)
	}
	recs := decodeAccessLog(t, buf.String())
	if len(recs) != 1 || len(recs[0].ID) != reqIDMax {
		t.Errorf("logged ID not truncated: %d records", len(recs))
	}
}

// TestAccessLogDropCounted: a failing log writer increments the drop
// counter instead of failing the request.
func TestAccessLogDropCounted(t *testing.T) {
	s, reg := newPostalServer(t, Config{AccessLog: failWriter{}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := postJSON(t, ts.URL+"/v1/check?dataset=postal", `{"PostalCode":"94704"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request failed with broken access log: %d", resp.StatusCode)
	}
	if n := reg.Snapshot().Counters["serve.accesslog.drops"]; n != 1 {
		t.Errorf("serve.accesslog.drops = %d, want 1", n)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

// TestStatusWriterFlush: the telemetry wrapper must not break streaming —
// NDJSON verdicts arrive row by row before the request body is closed,
// which only works when ResponseController reaches the real Flusher
// through Unwrap.
func TestStatusWriterFlush(t *testing.T) {
	var buf syncBuffer
	s, _ := newPostalServer(t, Config{AccessLog: &buf})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/v1/check?dataset=postal", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, errc := func() (*http.Response, chan error) {
		errc := make(chan error, 1)
		respc := make(chan *http.Response, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			respc <- resp
			errc <- err
		}()
		if _, err := pw.Write([]byte(`{"PostalCode":"94704","City":"Oakland"}` + "\n")); err != nil {
			t.Fatal(err)
		}
		return <-respc, errc
	}()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// The first verdict must be readable while the request body is still
	// open — proof the flush reached the wire.
	line := make([]byte, 4096)
	n, err := resp.Body.Read(line)
	if err != nil {
		t.Fatalf("reading first verdict: %v", err)
	}
	if !bytes.Contains(line[:n], []byte(`"flagged":true`)) {
		t.Errorf("first verdict = %q", line[:n])
	}
	_ = pw.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}
