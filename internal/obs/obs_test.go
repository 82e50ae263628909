package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// TestNilSafety: every handle from a nil registry is a usable no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Errorf("nil counter Value = %d, want 0", c.Value())
	}
	g := r.Gauge("y")
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Errorf("nil gauge Value = %d, want 0", g.Value())
	}
	h := r.Histogram("z")
	h.Observe(42)
	sp := r.Stage(trace.Scope{}, "z")
	time.Sleep(time.Millisecond)
	if d := sp.End(); d < time.Millisecond {
		t.Errorf("nil-registry stage End = %v, want the elapsed time (>= 1ms)", d)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Hists) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
	if s := r.StageSummary(); s != "" {
		t.Errorf("nil registry StageSummary = %q, want empty", s)
	}
}

// TestStageOneClock: a stage's End, its histogram sum and its trace
// record's Dur are one measurement, also through a chained attribute
// call; with the scope off the histogram still gets End's duration, and
// with a nil registry and a zero scope End still times, without
// allocating.
func TestStageOneClock(t *testing.T) {
	r := New()
	tr := trace.New(1)
	sp := r.Stage(tr.Root(), "stage").Int("k", 1).Str("s", "v")
	time.Sleep(time.Millisecond)
	d := sp.End()
	recs := tr.Records()
	if len(recs) != 1 || recs[0].Name != "stage" || len(recs[0].Attrs) != 2 {
		t.Fatalf("trace records = %+v, want one stage span with 2 attrs", recs)
	}
	h := r.Histogram("stage").Snapshot("stage")
	if d < time.Millisecond || recs[0].Dur != int64(d) || h.Count != 1 || h.SumNS != int64(d) {
		t.Errorf("End = %d ns, trace Dur = %d ns, hist count %d sum %d ns; want one duration >= 1ms",
			d, recs[0].Dur, h.Count, h.SumNS)
	}

	d = r.Stage(trace.Scope{}, "untraced").End()
	if h := r.Histogram("untraced").Snapshot("untraced"); h.Count != 1 || h.SumNS != int64(d) {
		t.Errorf("untraced stage: End = %d ns, hist count %d sum %d ns", d, h.Count, h.SumNS)
	}

	var off *Registry
	sp = off.Stage(trace.Scope{}, "stage")
	time.Sleep(time.Millisecond)
	if d := sp.End(); d < time.Millisecond {
		t.Errorf("disabled stage End = %v, want the elapsed time (>= 1ms)", d)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		off.Stage(trace.Scope{}, "stage").Int("k", 1).End()
	})
	if allocs != 0 {
		t.Errorf("disabled stage allocates %v per op, want 0", allocs)
	}
}

// TestCounterGaugeBasics: handles are cached per name and accumulate.
func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("rows")
	c.Inc()
	c.Add(9)
	if r.Counter("rows").Value() != 10 {
		t.Errorf("counter = %d, want 10", r.Counter("rows").Value())
	}
	if r.Counter("rows") != c {
		t.Error("Counter not cached by name")
	}
	g := r.Gauge("workers")
	g.Set(8)
	g.Add(-2)
	if g.Value() != 6 {
		t.Errorf("gauge = %d, want 6", g.Value())
	}
}

// TestSpan records a plausible duration.
func TestSpan(t *testing.T) {
	r := New()
	sp := r.Stage(trace.Scope{}, "work")
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d < time.Millisecond {
		t.Errorf("span duration %v < 1ms", d)
	}
	s := r.Snapshot()
	if len(s.Hists) != 1 || s.Hists[0].Count != 1 || s.Hists[0].SumNS < int64(time.Millisecond) {
		t.Errorf("stage snapshot = %+v", s.Hists)
	}
}

// TestConcurrentAccess is the -race guard for registry and handles.
func TestConcurrentAccess(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(int64(j))
				r.Histogram("h").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Snapshot().Hists[0].Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

// TestWriteReport round-trips the JSON document.
func TestWriteReport(t *testing.T) {
	r := New()
	r.Counter("pc.ci_tests").Add(12)
	r.Gauge("synth.workers").Set(4)
	r.Histogram("synth.learn").Observe(1000)

	path := filepath.Join(t.TempDir(), "report.json")
	if err := WriteReport(path, "synth", r); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Command != "synth" {
		t.Errorf("command = %q", rep.Command)
	}
	if rep.Counters["pc.ci_tests"] != 12 {
		t.Errorf("counters = %v", rep.Counters)
	}
	if rep.Gauges["synth.workers"] != 4 {
		t.Errorf("gauges = %v", rep.Gauges)
	}
	if len(rep.Hists) != 1 || rep.Hists[0].Name != "synth.learn" || rep.Hists[0].Count != 1 {
		t.Errorf("hists = %+v", rep.Hists)
	}
	for _, field := range []string{`"stages"`, `"sampled"`} {
		if strings.Contains(string(data), field) {
			t.Errorf("report JSON still carries the %s field", field)
		}
	}
}

// TestWriteReportNilRegistry: -report without instrumentation still emits
// valid JSON.
func TestWriteReportNilRegistry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := WriteReport(path, "check", nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Counters == nil {
		t.Errorf("empty report should have non-nil sections: %+v", rep)
	}
}

// TestStageSummary renders one aligned line per histogram.
func TestStageSummary(t *testing.T) {
	r := New()
	r.Histogram("synth.learn").Observe(int64(3 * time.Millisecond))
	r.Histogram("synth.enum").Observe(int64(time.Millisecond))
	got := r.StageSummary()
	if !strings.Contains(got, "synth.learn") || !strings.Contains(got, "synth.enum") {
		t.Errorf("summary missing stages:\n%s", got)
	}
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 3 { // header + 2 stages
		t.Errorf("summary has %d lines, want 3:\n%s", len(lines), got)
	}
	for _, col := range []string{"count", "total", "p50", "p99", "max"} {
		if !strings.Contains(lines[0], col) {
			t.Errorf("header missing %s column:\n%s", col, lines[0])
		}
	}
	if strings.Contains(lines[0], "sampled") {
		t.Errorf("header still carries the sampled column:\n%s", lines[0])
	}
}

// TestDisabledPathZeroAlloc is the acceptance-criteria check: with a nil
// registry every hot-path operation performs zero allocations.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		h.Observe(5)
		sp := r.Stage(trace.Scope{}, "h").Int("k", 1)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled hot path allocates %v per op, want 0", allocs)
	}
}

// TestEnabledCounterZeroAlloc: even enabled, counter/gauge/histogram
// updates through pre-resolved handles must not allocate.
func TestEnabledCounterZeroAlloc(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(2)
		h.Observe(9)
	})
	if allocs != 0 {
		t.Errorf("enabled hot path allocates %v per op, want 0", allocs)
	}
}

func BenchmarkCounterDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	c := New().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Stage(trace.Scope{}, "h").End()
	}
}

func BenchmarkHistogramEnabled(b *testing.B) {
	h := New().Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
