package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/synth"
)

// getDrift reads /v1/drift after the synchronous drain hook, so the body
// reflects every row the server accepted before the call.
func getDrift(t *testing.T, s *Server, url string) driftResponse {
	t.Helper()
	s.drainDrift()
	resp, err := http.Get(url + "/v1/drift")
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/drift status = %d\n%s", resp.StatusCode, body)
	}
	var out driftResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("/v1/drift body does not parse: %v\n%s", err, body)
	}
	return out
}

// TestDriftDisabled: without Drift config the endpoint stays mounted and
// reports the monitor off, and validation requests pay nothing.
func TestDriftDisabled(t *testing.T) {
	s, _ := newPostalServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, _ = postJSON(t, ts.URL+"/v1/check?dataset=postal", `{"PostalCode":"94704","City":"Berkeley","State":"CA"}`)
	out := getDrift(t, s, ts.URL)
	if out.Enabled || len(out.Datasets) != 0 {
		t.Fatalf("disabled monitor reported state: %+v", out)
	}
}

// TestDriftMonitorObservesRows: validated rows feed the per-dataset
// incremental driver; /v1/drift reports rows, windows, and the initial
// synthesis, and the drift.* counters land on the shared registry.
func TestDriftMonitorObservesRows(t *testing.T) {
	s, reg := newPostalServer(t, Config{
		Drift: DriftConfig{Enabled: true, WindowRows: 4, MaxWindows: 3},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 9 rows via the streaming and single-row paths: 2 full windows of 4,
	// 1 row still filling.
	rows := strings.Repeat(`{"PostalCode":"94704","City":"Berkeley","State":"CA"}`+"\n", 8)
	resp, err := http.Post(ts.URL+"/v1/check?dataset=postal", "application/x-ndjson", strings.NewReader(rows))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	_, _ = postJSON(t, ts.URL+"/v1/check?dataset=postal", `{"PostalCode":"10001","City":"New York","State":"NY"}`)

	out := getDrift(t, s, ts.URL)
	if !out.Enabled || out.WindowRows != 4 || out.MaxWindows != 3 {
		t.Fatalf("drift config echo off: %+v", out)
	}
	if len(out.Datasets) != 1 {
		t.Fatalf("datasets = %+v, want one", out.Datasets)
	}
	d := out.Datasets[0]
	if d.Dataset != "postal" || d.Rows != 9 || d.Windows != 2 {
		t.Fatalf("monitor state = %+v, want postal/9 rows/2 windows", d)
	}
	if !d.Synthesized || d.Fingerprint == "" {
		t.Fatalf("first window did not synthesize: %+v", d)
	}
	if d.LastError != "" {
		t.Fatalf("monitor error: %s", d.LastError)
	}
	e, _ := s.Registry().Get("postal")
	if d.ProgramFingerprint != e.FingerprintHex() {
		t.Fatalf("monitor pinned to %s, served program is %s", d.ProgramFingerprint, e.FingerprintHex())
	}
	if got := reg.Counter("drift.windows").Value(); got != 2 {
		t.Fatalf("drift.windows = %d, want 2", got)
	}
}

// TestDriftMonitorResetsOnReload: a hot reload that changes the program
// restarts the dataset's monitor — drift is relative to the statistics
// behind the currently served constraints.
func TestDriftMonitorResetsOnReload(t *testing.T) {
	s, _ := newPostalServer(t, Config{
		Drift: DriftConfig{Enabled: true, WindowRows: 100},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		_, _ = postJSON(t, ts.URL+"/v1/check?dataset=postal", `{"PostalCode":"94704","City":"Berkeley","State":"CA"}`)
	}
	if d := getDrift(t, s, ts.URL).Datasets[0]; d.Rows != 3 {
		t.Fatalf("rows = %d, want 3", d.Rows)
	}

	// Reload with a semantically different program.
	short := "GIVEN PostalCode ON City HAVING\n  IF PostalCode = \"94704\" THEN City <- \"Berkeley\";\n"
	body, err := json.Marshal(map[string]string{"schema_csv": postalCSV, "program": short})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/programs/postal", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d", resp.StatusCode)
	}

	_, _ = postJSON(t, ts.URL+"/v1/check?dataset=postal", `{"PostalCode":"94704","City":"Berkeley","State":"CA"}`)
	d := getDrift(t, s, ts.URL).Datasets[0]
	if d.Rows != 1 {
		t.Fatalf("monitor did not reset on reload: %+v", d)
	}
	e, _ := s.Registry().Get("postal")
	if d.ProgramFingerprint != e.FingerprintHex() {
		t.Fatalf("monitor not re-pinned to the reloaded program: %+v", d)
	}
}

// TestCodecDistinctUnseenCodes is the regression test for the sentinel
// collision: the codec used to encode every out-of-dictionary value to
// the single code Cardinality(attr), making two different unseen strings
// equal under engine comparisons. Distinct unseen strings must get
// distinct per-request codes from the request's dataset.Encoder, and
// repeats of the same string must reuse theirs.
func TestCodecDistinctUnseenCodes(t *testing.T) {
	rel, err := dataset.FromCSV(strings.NewReader(postalCSV), "postal")
	if err != nil {
		t.Fatal(err)
	}
	city := rel.AttrIndex("City")
	card := int32(rel.Cardinality(city))

	enc := dataset.NewEncoder(rel)
	a := enc.Encode(city, "Atlantis")
	b := enc.Encode(city, "El Dorado")
	if a == b {
		t.Fatalf("distinct unseen strings share code %d", a)
	}
	if a < card || b < card {
		t.Fatalf("unseen codes %d/%d collide with the dictionary (card %d)", a, b, card)
	}
	if again := enc.Encode(city, "Atlantis"); again != a {
		t.Fatalf("repeated unseen string moved: %d then %d", a, again)
	}
	if in, ok := rel.Dict(city).Lookup("Berkeley"); !ok || enc.Encode(city, "Berkeley") != in {
		t.Fatal("interned value no longer encodes to its dictionary code")
	}
	// Codes are per-request: a fresh encoder restarts the assignment, so
	// nothing leaks into the shared Entry or across requests.
	if first := dataset.NewEncoder(rel).Encode(city, "El Dorado"); first != card {
		t.Fatalf("fresh request first unseen code = %d, want %d", first, card)
	}

	// End to end through /v1/check: distinct unseen values in one batch
	// each decode back to their own raw string in the verdict stream, and
	// grown codes never match program literals (every row still flags
	// against its expected City).
	s, _ := newPostalServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rows := strings.Join([]string{
		`{"PostalCode":"94704","City":"Atlantis","State":"CA"}`,
		`{"PostalCode":"94704","City":"El Dorado","State":"CA"}`,
		`{"PostalCode":"94704","City":"Atlantis","State":"CA"}`,
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
	want := []string{"Atlantis", "El Dorado", "Atlantis"}
	for i, raw := range want {
		var v verdict
		if err := json.Unmarshal([]byte(lines[i]), &v); err != nil {
			t.Fatal(err)
		}
		if !v.Flagged || len(v.Violations) != 1 {
			t.Fatalf("row %d: %+v, want one City violation", i, v)
		}
		if got := v.Violations[0]; got.Attr != "City" || got.Actual != raw || got.Expected != "Berkeley" {
			t.Fatalf("row %d violation = %+v, want City %s->Berkeley", i, got, raw)
		}
	}
}

// TestDriftFollowsLiveVersion: the first row validated by a reloaded
// entry starts a fresh feed and retires the old one; from then on a
// request still holding the superseded entry gets no feed, so its rows
// cannot reset the monitor back.
func TestDriftFollowsLiveVersion(t *testing.T) {
	s, _ := newPostalServer(t, Config{Drift: DriftConfig{Enabled: true}})
	e1, _ := s.Registry().Get("postal")
	f1 := s.drift.feedFor(e1)
	if f1 == nil || s.drift.feedFor(e1) != f1 {
		t.Fatal("the live entry must keep one feed")
	}
	short := "GIVEN PostalCode ON City HAVING\n  IF PostalCode = \"94704\" THEN City <- \"Berkeley\";\n"
	e2, changed, err := s.Registry().Load("postal", []byte(postalCSV), []byte(short))
	if err != nil || !changed {
		t.Fatalf("reload: changed %v, %v", changed, err)
	}
	f2 := s.drift.feedFor(e2)
	if f2 == nil || f2 == f1 || s.drift.feedFor(e1) != nil {
		t.Fatal("the reloaded entry must get its own feed, and the old entry none")
	}
	f1.mu.Lock()
	retired := f1.retired
	f1.mu.Unlock()
	if !retired {
		t.Fatal("the superseded feed was not retired")
	}
}

// chainDrift is the shifting stream the /v1/drift golden is taken over:
// 3000 rows of a postal chain whose City decouples from PostalCode at row
// 1500, served against a schema of only its first 4 rows, so most values
// are unseen by the served dictionary.
type chainDrift struct {
	schema []byte
	rows   [][]string
	attrs  []string
}

func newChainDrift(t testing.TB) chainDrift {
	t.Helper()
	src, err := bn.PostalChain(6).Sample(3000, 32)
	if err != nil {
		t.Fatal(err)
	}
	var schema bytes.Buffer
	if err := src.SelectRows([]int{0, 1, 2, 3}).ToCSV(&schema); err != nil {
		t.Fatal(err)
	}
	c := chainDrift{schema: schema.Bytes(), attrs: src.Attrs()}
	cityAt := src.AttrIndex("City")
	for r := 0; r < src.NumRows(); r++ {
		vals := src.RowStrings(r)
		if r >= 1500 { // City decouples from PostalCode
			vals[cityAt] = fmt.Sprintf("junk-%d", r%17)
		}
		c.rows = append(c.rows, vals)
	}
	return c
}

// server starts a monitored server with the chain program loaded.
func (c chainDrift) server(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry(nil)
	if _, _, err := reg.Load("chain", c.schema, []byte(`GIVEN PostalCode ON City HAVING IF PostalCode = "0" THEN City <- "0";`)); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Registry: reg, FlightSize: -1, Drift: DriftConfig{Enabled: true, WindowRows: 500, MaxWindows: 4}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// send posts the stream in 250-row batches, alternating CSV and NDJSON,
// calling between after each request.
func (c chainDrift) send(t testing.TB, url string, between func()) {
	t.Helper()
	for lo := 0; lo < len(c.rows); lo += 250 {
		var body bytes.Buffer
		ct := "text/csv"
		if lo/250%2 == 0 {
			fmt.Fprintln(&body, strings.Join(c.attrs, ","))
			for _, vals := range c.rows[lo : lo+250] {
				fmt.Fprintln(&body, strings.Join(vals, ","))
			}
		} else {
			ct = "application/x-ndjson"
			for _, vals := range c.rows[lo : lo+250] {
				m := map[string]string{}
				for a, v := range vals {
					m[c.attrs[a]] = v
				}
				line, err := json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				body.Write(append(line, '\n'))
			}
		}
		resp, err := http.Post(url+"/v1/check?dataset=chain", ct, &body)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		between()
	}
}

// driftBody drains the monitor and returns the raw /v1/drift body.
func driftBody(t testing.TB, s *Server, url string) string {
	t.Helper()
	s.drainDrift()
	resp, err := http.Get(url + "/v1/drift")
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
	return string(got)
}

// TestDriftWireGolden pins the /v1/drift body after a shifting stream of
// 3000 rows, sent as CSV and NDJSON batches over several requests: row
// counts, windows, triggers and the change events with their row numbers
// and program fingerprints. The monitor keeps only the rows its ring
// still needs, so this golden holds its absolute row accounting fixed.
// The body is read through the synchronous drain hook.
func TestDriftWireGolden(t *testing.T) {
	c := newChainDrift(t)
	s, ts := c.server(t)
	c.send(t, ts.URL, func() {})
	checkGolden(t, filepath.Join("testdata", "drift.golden"), driftBody(t, s, ts.URL))
}

// TestDriftDeterministic: /v1/drift is a function of the sequence of
// accepted rows alone, however the workers were scheduled. One server is
// drained after every request, the other only at the end; both bodies
// must be equal. The monitor's driver state must also equal a
// synth.Incremental fed the same rows as strings, the way `guardrail
// resynth` feeds it: the served codes, overflow codes and the worker's
// translation reach the same relation as interning the strings would.
func TestDriftDeterministic(t *testing.T) {
	c := newChainDrift(t)
	stepped, tsA := c.server(t)
	c.send(t, tsA.URL, stepped.drainDrift)
	batched, tsB := c.server(t)
	c.send(t, tsB.URL, func() {})
	a, b := driftBody(t, stepped, tsA.URL), driftBody(t, batched, tsB.URL)
	if a != b {
		t.Fatalf("drained per request:\n%s\ndrained once:\n%s", a, b)
	}

	inc := synth.NewIncremental(dataset.New("chain", c.attrs), synth.IncrOptions{
		WindowRows: 500, MaxWindows: 4, Synth: synth.Options{IdentitySampler: true},
	})
	for _, vals := range c.rows {
		_, _ = inc.Observe(vals)
	}
	var out driftResponse
	if err := json.Unmarshal([]byte(a), &out); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(inc.Status())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(out.Datasets[0].IncrStatus)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("monitor state\n%s\nwant the string-fed driver's\n%s", got, want)
	}
}

// TestDriftMonitorMemoryBounded streams 10^5 distinct City values the
// served schema has never seen through one monitor. The overflow
// dictionary stops at its cap (shrunk here to 256) of values and counts the rest into the
// "other" slot, the monitor relation's dictionary and the driver's live
// cells stay under fixed bounds, and the served schema is never interned
// into.
func TestDriftMonitorMemoryBounded(t *testing.T) {
	const (
		rows, perRequest = 100_000, 1000
		window, windows  = 1000, 2
		maxOverflow      = 256
	)
	s, reg := newPostalServer(t, Config{Drift: DriftConfig{Enabled: true, WindowRows: window, MaxWindows: windows}})
	s.drift.maxOverflow = maxOverflow
	e, _ := s.Registry().Get("postal")
	city := e.Schema.AttrIndex("City")
	cards := make([]int, e.Schema.NumAttrs())
	for a := range cards {
		cards[a] = e.Schema.Cardinality(a)
	}
	f := s.drift.feedFor(e)
	var enc *dataset.Encoder
	for r := 0; r < rows; r++ {
		if r%perRequest == 0 {
			s.drainDrift()
			enc = dataset.NewEncoder(e.Schema) // one encoder per request
		}
		f.push([]int32{
			enc.Encode(0, "94704"),
			enc.Encode(city, fmt.Sprintf("city-%d", r)),
			enc.Encode(2, "CA"),
		}, enc)
	}
	s.drainDrift()

	st := f.status()
	if st.Rows != rows || st.RowsDropped != 0 {
		t.Fatalf("monitor saw %d rows, dropped %d; want all %d", st.Rows, st.RowsDropped, rows)
	}
	if st.Overflow != rows-maxOverflow || reg.Counter("drift.overflow").Value() != int64(rows-maxOverflow) {
		t.Fatalf("overflow = %d (counter %d), want %d", st.Overflow, reg.Counter("drift.overflow").Value(), rows-maxOverflow)
	}
	if n := len(f.ovfVals[city]); n != maxOverflow || len(f.ovf[city]) != maxOverflow {
		t.Fatalf("overflow dictionary holds %d values, cap %d", n, maxOverflow)
	}
	if n, bound := f.inc.Rel().Cardinality(city), cards[city]+maxOverflow+1; n > bound {
		t.Fatalf("monitor dictionary holds %d City values, bound %d", n, bound)
	}
	if n, bound := f.inc.Cells(), windows*window; n > bound {
		t.Fatalf("driver holds %d live cells, bound %d", n, bound)
	}
	if n, bound := f.inc.Rel().NumRows(), (windows+1)*window; n > bound {
		t.Fatalf("driver relation holds %d rows, bound %d", n, bound)
	}
	for a, c := range cards {
		if e.Schema.Cardinality(a) != c {
			t.Fatalf("served schema attribute %d grew from %d to %d values", a, c, e.Schema.Cardinality(a))
		}
	}
	if _, ok := e.Schema.Dict(city).Lookup("city-7"); ok {
		t.Fatal("an unseen value was interned into the served schema")
	}
}

// TestDriftQueueFullDrops: a row that finds the queue full is dropped
// from the monitor and counted, never blocking the request path. The
// worker is held on the monitor state so the queue cannot drain.
func TestDriftQueueFullDrops(t *testing.T) {
	s, reg := newPostalServer(t, Config{Drift: DriftConfig{Enabled: true, WindowRows: 4}})
	s.drift.queueRows = 8
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	e, _ := s.Registry().Get("postal")
	f := s.drift.feedFor(e)

	f.state.Lock()
	rows := strings.Repeat(`{"PostalCode":"94704","City":"Berkeley","State":"CA"}`+"\n", 20)
	resp, err := http.Post(ts.URL+"/v1/check?dataset=postal", "application/x-ndjson", strings.NewReader(rows))
	if err != nil {
		f.state.Unlock()
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	f.state.Unlock()
	if err != nil || !strings.Contains(string(body), `"summary":{"rows":20,`) {
		t.Fatalf("validation did not answer every row: %v\n%s", err, body)
	}

	d := getDrift(t, s, ts.URL).Datasets[0]
	if d.Rows+d.RowsDropped != 20 || d.RowsDropped < 20-2*8 {
		t.Fatalf("monitor saw %d rows and dropped %d of 20 with 8 slots", d.Rows, d.RowsDropped)
	}
	if got := reg.Counter("drift.rows_dropped").Value(); got != int64(d.RowsDropped) {
		t.Fatalf("drift.rows_dropped = %d, status says %d", got, d.RowsDropped)
	}
}

// TestDriftQueueGrowsInOrder: while the worker is held, the queue grows
// from its initial ring, wrapped part included, and the monitor still
// observes every row in the order it was accepted.
func TestDriftQueueGrowsInOrder(t *testing.T) {
	s, _ := newPostalServer(t, Config{Drift: DriftConfig{Enabled: true, WindowRows: 5000}})
	s.drift.queueRows = 1000
	e, _ := s.Registry().Get("postal")
	f := s.drift.feedFor(e)
	enc := dataset.NewEncoder(e.Schema)
	cities := []string{"Berkeley", "San Francisco", "New York", "Atlantis"}
	var want []string
	push := func(n int) {
		for i := 0; i < n; i++ {
			city := cities[(len(want)*7/3)%len(cities)]
			want = append(want, city)
			f.push([]int32{enc.Encode(0, "94704"), enc.Encode(1, city), enc.Encode(2, "CA")}, enc)
		}
	}
	push(200) // moves the ring's head past its start
	s.drainDrift()
	f.state.Lock()
	push(700) // wraps the 256-row ring, then grows it twice
	f.state.Unlock()
	s.drainDrift()

	st := f.status()
	if st.Rows != len(want) || st.RowsDropped != 0 {
		t.Fatalf("observed %d of %d rows, dropped %d", st.Rows, len(want), st.RowsDropped)
	}
	rel := f.inc.Rel()
	for r := 0; r < rel.NumRows(); r++ {
		if got := rel.Value(r, 1); got != want[r] {
			t.Fatalf("row %d observed City %q, pushed %q", r, got, want[r])
		}
	}
}

// TestDriftConcurrentRequests: concurrent batches to one dataset all
// reach its monitor while /v1/drift is read alongside, and hot reloads
// racing the batches leave the monitor on the live version. Run under
// -race.
func TestDriftConcurrentRequests(t *testing.T) {
	const senders, requests, rows = 4, 10, 50
	s, _ := newPostalServer(t, Config{Drift: DriftConfig{Enabled: true, WindowRows: 64}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := strings.Repeat(`{"PostalCode":"94110","City":"Atlantis","State":"CA"}`+"\n", rows)
	send := func() {
		resp, err := http.Post(ts.URL+"/v1/check?dataset=postal", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	run := func(side func()) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			side()
		}()
		finished := make(chan struct{}, senders)
		for g := 0; g < senders; g++ {
			go func() {
				defer func() { finished <- struct{}{} }()
				for i := 0; i < requests; i++ {
					send()
				}
			}()
		}
		for g := 0; g < senders; g++ {
			<-finished
		}
		<-done
	}

	run(func() {
		for i := 0; i < 20; i++ {
			resp, err := http.Get(ts.URL + "/v1/drift")
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
	})
	d := getDrift(t, s, ts.URL).Datasets[0]
	if want := senders * requests * rows; d.Rows != want || d.RowsDropped != 0 || d.LastError != "" {
		t.Fatalf("monitor saw %d rows (dropped %d, error %q), want %d", d.Rows, d.RowsDropped, d.LastError, want)
	}

	short := "GIVEN PostalCode ON City HAVING\n  IF PostalCode = \"94704\" THEN City <- \"Berkeley\";\n"
	run(func() {
		for i := 0; i < 6; i++ {
			prog := postalProg
			if i%2 == 0 {
				prog = short
			}
			if _, _, err := s.Registry().Load("postal", []byte(postalCSV), []byte(prog)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	send()
	d = getDrift(t, s, ts.URL).Datasets[0]
	if e, _ := s.Registry().Get("postal"); d.ProgramFingerprint != e.FingerprintHex() || d.Rows == 0 || d.LastError != "" {
		t.Fatalf("after reloads the monitor reports %+v, live program %s", d, e.FingerprintHex())
	}
}

// TestDriftWorkersDoNotLeak: a server used only through Handler() holds
// no goroutine once its rows are observed, and none outlives Run.
func TestDriftWorkersDoNotLeak(t *testing.T) {
	settle := func(base int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines, want at most %d", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	rows := strings.Repeat(`{"PostalCode":"94704","City":"Berkeley","State":"CA"}`+"\n", 300)
	post := func(h http.Handler) {
		req := httptest.NewRequest(http.MethodPost, "/v1/check?dataset=postal", strings.NewReader(rows))
		req.Header.Set("Content-Type", "application/x-ndjson")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		s, _ := newPostalServer(t, Config{Drift: DriftConfig{Enabled: true, WindowRows: 100}})
		post(s.Handler())
	}
	settle(base)

	s, _ := newPostalServer(t, Config{Drift: DriftConfig{Enabled: true, WindowRows: 100}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, ln) }()
	post(s.Handler())
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s.drift.mu.Lock()
	workers := s.drift.workers
	s.drift.mu.Unlock()
	if workers != 0 {
		t.Fatalf("%d drift workers still running after Run returned", workers)
	}
	if d := s.drift.current()[0].status(); d.Rows != 300 {
		t.Fatalf("Run returned with %d of 300 rows observed", d.Rows)
	}
	settle(base)
}

// BenchmarkDriftHandoff prices the drift monitor's share of the request
// path: one push of a validated row's codes into its dataset's queue,
// with the worker observing rows alongside. The queue is drained off the
// clock every queueRows pushes, so every timed push finds room.
func BenchmarkDriftHandoff(b *testing.B) {
	const queueRows = 4096
	s, _ := newPostalServer(b, Config{Drift: DriftConfig{Enabled: true}})
	s.drift.queueRows = queueRows
	e, _ := s.Registry().Get("postal")
	f := s.drift.feedFor(e)
	enc := dataset.NewEncoder(e.Schema)
	codes := []int32{enc.Encode(0, "94704"), enc.Encode(1, "Berkeley"), enc.Encode(2, "CA")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%queueRows == queueRows-1 {
			b.StopTimer()
			s.drainDrift()
			b.StartTimer()
		}
		f.push(codes, enc)
	}
	b.StopTimer()
	s.drainDrift()
	if st := f.status(); st.RowsDropped != 0 || st.Rows != b.N {
		b.Fatalf("monitor saw %d of %d rows, dropped %d", st.Rows, b.N, st.RowsDropped)
	}
}
