package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/dataset"
)

func getDrift(t *testing.T, url string) driftResponse {
	t.Helper()
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
	out := getDrift(t, ts.URL)
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

	out := getDrift(t, ts.URL)
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
	if d := getDrift(t, ts.URL).Datasets[0]; d.Rows != 3 {
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
	d := getDrift(t, ts.URL).Datasets[0]
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

// TestDriftWireGolden pins the /v1/drift body after a shifting stream of
// 3000 rows, sent as CSV and NDJSON batches over several requests: row
// counts, windows, triggers and the change events with their row numbers
// and program fingerprints. The monitor keeps only the rows its ring
// still needs, so this golden holds its absolute row accounting fixed.
func TestDriftWireGolden(t *testing.T) {
	src, err := bn.PostalChain(6).Sample(3000, 32)
	if err != nil {
		t.Fatal(err)
	}
	var schema bytes.Buffer
	if err := src.SelectRows([]int{0, 1, 2, 3}).ToCSV(&schema); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(nil)
	if _, _, err := reg.Load("chain", schema.Bytes(), []byte(`GIVEN PostalCode ON City HAVING IF PostalCode = "0" THEN City <- "0";`)); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Registry: reg, FlightSize: -1, Drift: DriftConfig{Enabled: true, WindowRows: 500, MaxWindows: 4}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cityAt := src.AttrIndex("City")
	row := func(r int) []string {
		vals := src.RowStrings(r)
		if r >= 1500 { // City decouples from PostalCode
			vals[cityAt] = fmt.Sprintf("junk-%d", r%17)
		}
		return vals
	}
	for lo := 0; lo < src.NumRows(); lo += 250 {
		var body bytes.Buffer
		ct := "text/csv"
		if lo/250%2 == 0 {
			fmt.Fprintln(&body, strings.Join(src.Attrs(), ","))
			for r := lo; r < lo+250; r++ {
				fmt.Fprintln(&body, strings.Join(row(r), ","))
			}
		} else {
			ct = "application/x-ndjson"
			for r := lo; r < lo+250; r++ {
				m := map[string]string{}
				for a, v := range row(r) {
					m[src.Attr(a)] = v
				}
				line, err := json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				body.Write(append(line, '\n'))
			}
		}
		resp, err := http.Post(ts.URL+"/v1/check?dataset=chain", ct, &body)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/drift")
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
	checkGolden(t, filepath.Join("testdata", "drift.golden"), string(got))
}
