package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// canned is a trimmed transcript of `go test -bench=. -benchmem -count=2`
// including headers, noise lines, and worker-sweep sub-benchmarks.
const canned = `goos: linux
goarch: amd64
pkg: github.com/guardrail-db/guardrail
cpu: AMD EPYC 7713 64-Core Processor
BenchmarkSynthesizeWorkers/workers=1-8         	      64	  18000000 ns/op	 5716236 B/op	   50010 allocs/op
BenchmarkSynthesizeWorkers/workers=1-8         	      64	  18200000 ns/op	 5716300 B/op	   50012 allocs/op
BenchmarkSynthesizeWorkers/workers=4-8         	     256	   6000000 ns/op	 5800000 B/op	   50500 allocs/op
BenchmarkSynthesizeWorkers/workers=4-8         	     250	   6400000 ns/op	 5800100 B/op	   50501 allocs/op
BenchmarkG2Test-8                              	  100000	     11234 ns/op
PASS
ok  	github.com/guardrail-db/guardrail	12.345s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(canned))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Errorf("goos/goarch = %q/%q", rep.Goos, rep.Goarch)
	}
	if rep.CPU != "AMD EPYC 7713 64-Core Processor" {
		t.Errorf("cpu = %q", rep.CPU)
	}
	if rep.Pkg != "github.com/guardrail-db/guardrail" {
		t.Errorf("pkg = %q", rep.Pkg)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}

	w1 := rep.Benchmarks[0]
	if w1.Name != "BenchmarkSynthesizeWorkers/workers=1" {
		t.Errorf("first benchmark name = %q (GOMAXPROCS suffix not trimmed?)", w1.Name)
	}
	if len(w1.Samples) != 2 {
		t.Fatalf("workers=1 has %d samples, want 2", len(w1.Samples))
	}
	if w1.Samples[0].NsPerOp != 18000000 || w1.Samples[0].Iterations != 64 {
		t.Errorf("sample 0 = %+v", w1.Samples[0])
	}
	if w1.Samples[0].BytesPerOp != 5716236 || w1.Samples[0].AllocsPerOp != 50010 {
		t.Errorf("memory stats = %+v", w1.Samples[0])
	}
	if w1.MedianNs != 18100000 {
		t.Errorf("workers=1 median = %v, want 18100000", w1.MedianNs)
	}

	g2 := rep.Benchmarks[2]
	if g2.Name != "BenchmarkG2Test" {
		t.Errorf("third benchmark name = %q", g2.Name)
	}
	if g2.MedianNs != 11234 || g2.Samples[0].BytesPerOp != 0 {
		t.Errorf("no-benchmem line parsed as %+v", g2)
	}
}

func TestSummary(t *testing.T) {
	rep, err := Parse(strings.NewReader(canned))
	if err != nil {
		t.Fatal(err)
	}
	got := Summary(rep)
	// workers=1 median 18.1ms, workers=4 median 6.2ms -> 2.92x.
	for _, want := range []string{
		"| BenchmarkSynthesizeWorkers | 1 | 18100000 | 1.00x |",
		"| BenchmarkSynthesizeWorkers | 4 | 6200000 | 2.92x |",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "BenchmarkG2Test") {
		t.Errorf("summary should only include /workers= families:\n%s", got)
	}
}

func TestSummaryNoWorkerVariants(t *testing.T) {
	rep := &Report{Benchmarks: []Benchmark{{Name: "BenchmarkFoo", MedianNs: 1}}}
	if got := Summary(rep); !strings.Contains(got, "No /workers= benchmark variants") {
		t.Errorf("got %q", got)
	}
}

// cannedReport is a trimmed `guardrail serve -report` document: the
// hists section plus noise benchjson must ignore — counters, and the
// `stages` section that reports carried before stage timers moved into
// hists. Label order inside one histogram is intentionally unsorted to
// exercise map construction, and the empty histogram must be dropped.
const cannedReport = `{
  "command": "serve",
  "counters": {"serve.requests": 12},
  "stages": [],
  "hists": [
    {"name": "serve.request.check", "count": 10, "sum_ns": 1000,
     "min_ns": 50, "max_ns": 300, "p50_ns": 95, "p90_ns": 200,
     "p99_ns": 280, "p999_ns": 300,
     "buckets": [{"le_ns": 95, "count": 10}]},
    {"name": "serve.request.latency",
     "labels": [{"key": "endpoint", "value": "check"}, {"key": "dataset", "value": "postal"}],
     "count": 4, "sum_ns": 400, "min_ns": 80, "max_ns": 130,
     "p50_ns": 99, "p90_ns": 120, "p99_ns": 130, "p999_ns": 130},
    {"name": "serve.request.rectify", "count": 0, "sum_ns": 0,
     "min_ns": 0, "max_ns": 0, "p50_ns": 0, "p90_ns": 0, "p99_ns": 0, "p999_ns": 0}
  ]
}`

func TestLoadServeReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, []byte(cannedReport), 0o644); err != nil {
		t.Fatal(err)
	}
	serve, err := LoadServeReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(serve) != 2 {
		t.Fatalf("got %d serve entries, want 2 (empty histogram not dropped?): %+v", len(serve), serve)
	}
	check := serve[0]
	if check.Name != "serve.request.check" || check.Count != 10 {
		t.Errorf("first entry = %+v", check)
	}
	if check.MeanNs != 100 || check.P50Ns != 95 || check.P99Ns != 280 || check.P999Ns != 300 || check.MaxNs != 300 {
		t.Errorf("quantiles = %+v", check)
	}
	if check.Labels != nil {
		t.Errorf("unlabeled histogram got labels %v", check.Labels)
	}
	lat := serve[1]
	if lat.Name != "serve.request.latency" {
		t.Errorf("second entry = %+v (sorted by name?)", lat)
	}
	if lat.Labels["endpoint"] != "check" || lat.Labels["dataset"] != "postal" {
		t.Errorf("labels = %v", lat.Labels)
	}
}

func TestRunExtendsExistingJSON(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	if err := os.WriteFile(report, []byte(cannedReport), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "BENCH_2026-08-07.json")

	// First pass: bench text only, as the CI bench step does.
	bench := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(bench, []byte(canned), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bench, "", "", out, "2026-08-07", false); err != nil {
		t.Fatal(err)
	}

	// Second pass: extend the same file in place with the serve section.
	if err := run("", out, report, out, "2026-08-07", false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Errorf("benchmarks lost on extend: got %d, want 3", len(rep.Benchmarks))
	}
	if rep.Goos != "linux" {
		t.Errorf("headers lost on extend: goos = %q", rep.Goos)
	}
	if len(rep.Serve) != 2 {
		t.Errorf("serve section: got %d entries, want 2", len(rep.Serve))
	}
	if rep.Date != "2026-08-07" {
		t.Errorf("date = %q", rep.Date)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run("", "", "", out, "2026-08-07", false); err == nil {
		t.Fatal("want error for no bench lines and no serve histograms")
	}
}

func TestServeSummary(t *testing.T) {
	rep := &Report{Serve: []ServeLatency{{
		Name:   "serve.request.check",
		Labels: map[string]string{"endpoint": "check"},
		Count:  10, P50Ns: 95000, P99Ns: 280000, P999Ns: 300000, MaxNs: 300000,
	}}}
	got := Summary(rep)
	if !strings.Contains(got, "## Serve latency") {
		t.Errorf("summary missing serve table:\n%s", got)
	}
	if !strings.Contains(got, "| serve.request.check | endpoint=check | 10 | 95µs | 280µs | 300µs | 300µs |") {
		t.Errorf("serve row malformed:\n%s", got)
	}
}

func TestTrimProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":           "BenchmarkFoo",
		"BenchmarkFoo/workers=4-8": "BenchmarkFoo/workers=4",
		"BenchmarkFoo":             "BenchmarkFoo",
		"BenchmarkFoo/sub-case":    "BenchmarkFoo/sub-case",
	}
	for in, want := range cases {
		if got := trimProcSuffix(in); got != want {
			t.Errorf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}
