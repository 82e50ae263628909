package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentilePicksHighestLevelWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		wantLevel float64
		wantOK    bool
	}{
		{19, 0, false}, // the median has only 9 samples beyond it
		{20, 0.5, true},
		{99, 0.5, true}, // p90 has 99 - 90 = 9 beyond
		{100, 0.9, true},
		{999, 0.9, true}, // p99 has 999 - 990 = 9 beyond
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted on purpose
		}
		level, v, ok := tailPercentile(xs)
		if ok != tc.wantOK || level != tc.wantLevel {
			t.Errorf("n=%d: level %v ok %v, want %v %v", tc.n, level, ok, tc.wantLevel, tc.wantOK)
			continue
		}
		if !ok {
			continue
		}
		if want := math.Ceil(tc.wantLevel * float64(tc.n)); v != want {
			t.Errorf("n=%d: p%g = %v, want %v", tc.n, 100*level, v, want)
		}
		if b := beyond(tc.n, level); b < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", tc.n, b, 100*level)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.2: 1, 0.5: 3, 0.9: 5, 1: 5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestF1AgainstHandComputedConfusion(t *testing.T) {
	// rows:  0  1  2  3  4  5  6  7  8  9
	pred := []bool{true, true, true, true, false, false, false, false, false, false}
	gold := []bool{true, true, true, false, true, true, false, false, false, false}
	c := confusionOf(pred, gold)
	if want := (confusion{TP: 3, FP: 1, FN: 2, TN: 4}); c != want {
		t.Fatalf("confusion %+v, want %+v", c, want)
	}
	// precision 3/4, recall 3/5: F1 = 2·(3/4)(3/5)/(3/4+3/5) = 2/3.
	if got := c.f1(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("f1 = %v, want 2/3", got)
	}
	if got := (confusion{FN: 5, TN: 5}).f1(); got != 0 {
		t.Errorf("f1 with no true positives = %v, want 0", got)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Group: 7, Start: 0, End: 100},
		// Two parallel lanes overlapping on [30, 50].
		{ID: 2, Parent: 1, Name: "lane", Group: 7, Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "lane", Group: 7, Start: 30, End: 70},
		// A grandchild covers part of lane 2 only.
		{ID: 4, Parent: 2, Name: "leaf", Group: 7, Start: 20, End: 25},
		// Another group's span must not leak in.
		{ID: 5, Name: "other", Group: 8, Start: 0, End: 1000},
	}
	self := selfTimes(spans[:4])
	for id, want := range map[int]time.Duration{1: 40, 2: 35, 3: 40, 4: 5} {
		if self[id] != want {
			t.Errorf("span %d self %v, want %v", id, self[id], want)
		}
	}
	byName := layerSelf(spans, 7)
	if want := map[string]time.Duration{"pass": 40, "lane": 75, "leaf": 5}; !reflect.DeepEqual(byName, want) {
		t.Errorf("self by name %v, want %v", byName, want)
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "late", Start: 90, End: 130},
	}
	if got := selfTimes(spans)[1]; got != 90 {
		t.Errorf("root self %v, want 90", got)
	}
}

func TestSequentialSelfTimesMatchMeasuredWall(t *testing.T) {
	rec := newRecorder()
	root := rec.start("pass", 0, 1)
	t0 := time.Now()
	for _, name := range []string{"a", "b", "c"} {
		s := rec.start(name, root, 1)
		time.Sleep(time.Millisecond)
		rec.end(s)
	}
	wall := time.Since(t0)
	rec.end(root)
	var total time.Duration
	for _, d := range layerSelf(rec.snapshot(), 1) {
		total += d
	}
	if !wallAgrees(total, wall) {
		t.Errorf("self times sum to %v, measured wall is %v", total, wall)
	}
}

func TestWallAgreesTolerance(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		attributed, wall time.Duration
		want             bool
	}{
		{100*ms + ms, 100 * ms, true},    // within 2 ms
		{100*ms + 3*ms, 100 * ms, false}, // beyond 2 ms, and 1% is 1 ms
		{97 * ms, 100 * ms, false},
		{time.Second + 9*ms, time.Second, true}, // within 1%
		{time.Second + 11*ms, time.Second, false},
		// Overlapping siblings counted twice: lanes of 60 ms and 70 ms
		// under a 100 ms pass sum to 130 ms.
		{130 * ms, 100 * ms, false},
	} {
		if got := wallAgrees(tc.attributed, tc.wall); got != tc.want {
			t.Errorf("wallAgrees(%v, %v) = %v, want %v", tc.attributed, tc.wall, got, tc.want)
		}
	}
}

// fakeClock advances only when the sender sleeps or a request is served.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestDueTimeLatencyUnderStalledResponse(t *testing.T) {
	ms := time.Millisecond
	origin := time.Unix(0, 0)
	clk := &fakeClock{now: origin}
	due := []time.Duration{0, 1 * ms, 2 * ms, 3 * ms, 4 * ms, 20 * ms}
	service := []time.Duration{ms / 10, 10 * ms, ms / 10, ms / 10, ms / 10, ms / 10}
	got := openLoop(clk, origin, due, func(i int) error {
		clk.now = clk.now.Add(service[i])
		return nil
	})
	// Request 1 stalls for 10ms: requests 2-4 were due during the stall,
	// go out as soon as it ends, and their latency counts the wait.
	want := []struct{ lat, late time.Duration }{
		{ms / 10, 0},
		{10 * ms, 0},
		{11*ms + ms/10 - 2*ms, 11*ms - 2*ms},
		{11*ms + 2*ms/10 - 3*ms, 11*ms + ms/10 - 3*ms},
		{11*ms + 3*ms/10 - 4*ms, 11*ms + 2*ms/10 - 4*ms},
		{ms / 10, 0}, // the backlog has drained by 20ms
	}
	for i, s := range got {
		if s.latency() != want[i].lat || s.lateness() != want[i].late {
			t.Errorf("request %d: latency %v lateness %v, want %v %v", i, s.latency(), s.lateness(), want[i].lat, want[i].late)
		}
		if s.end-s.start != service[i] {
			t.Errorf("request %d: service time %v, want %v", i, s.end-s.start, service[i])
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(3)), 500, time.Second, 2*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(3)), 500, time.Second, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if n := len(a); n < 800 || n > 1200 {
		t.Errorf("%d arrivals in 2s at 500/s", n)
	}
	for i, d := range a {
		if d < time.Second || d >= 3*time.Second || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or outside [1s, 3s)", i, d)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists and
// the ones this command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(listed), len(defs))
		}
		for i := range min(len(listed), len(defs)) {
			if listed[i].Name != defs[i].name || listed[i].Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 10, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1, 10, 100) = %v, want 10", got)
	}
}

// Each quiet round is scaled by its own probes: round trips by the echo
// probe, batch throughput by the machine probe. The second and third rounds
// ran on a slowed machine, where the machine probe and batch times took
// twice as long and the echo probe and round trips 1.5 times; the fourth did
// slower work at the reference speed. Scaled, the slowed rounds count like
// the first, so the medians are the first round's. Scaling round trips by
// the machine probe, scaling nothing, or one run-wide factor would each
// give other medians.
func TestQuietRoundsScaledByOwnProbe(t *testing.T) {
	slowed := quietRound{probe: 20, echo: 0.03, rtt: []float64{0.075, 0.09, 0.105}, batch: 80 * time.Millisecond, batchRows: 5000}
	rounds := []quietRound{
		{probe: 10, echo: 0.02, rtt: []float64{0.05, 0.06, 0.07}, batch: 40 * time.Millisecond, batchRows: 5000},
		slowed,
		slowed,
		{probe: 10, echo: 0.02, rtt: []float64{0.08, 0.09, 0.10}, batch: 60 * time.Millisecond, batchRows: 5000},
	}
	lat, rows := quietFigures(rounds)
	if math.Abs(lat-0.06) > 1e-12 || math.Abs(rows-125_000) > 1e-6 {
		t.Fatalf("quietFigures = %v ms, %v rows/s; want 0.06 ms, 125000 rows/s", lat, rows)
	}
}
