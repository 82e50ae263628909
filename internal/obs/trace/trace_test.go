package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestDisabledZeroAlloc pins the contract that a nil tracer makes every
// hot-path operation free: no allocations for scopes, spans, attributes,
// events, or context plumbing.
func TestDisabledZeroAlloc(t *testing.T) {
	var tr *Tracer
	sc := tr.Root()
	if sc.Enabled() {
		t.Fatal("nil tracer produced an enabled scope")
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := sc.Start("stage").Int("n", 42).Str("k", "v").Float("f", 1.5).Bool("b", true)
		sp.Event("tick")
		sc.Event("hit")
		sc.EventStr("miss", "key", "abc")
		child := sp.Scope().OnLane(tr.Lane(3))
		child.Start("inner").End()
		c2 := ContextWithScope(ctx, sc)
		_ = FromContext(c2)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled trace path allocated %.1f times per op, want 0", allocs)
	}
}

// TestSpanTree checks parent linkage, attribute capture, events, and that
// child intervals nest within their parents.
func TestSpanTree(t *testing.T) {
	tr := New(2)
	root := tr.Root()
	outer := root.Start("outer").Int("size", 7)
	inner := outer.Scope().Start("inner")
	inner.Event("checkpoint")
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()

	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]Record{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	o, i, ev := byName["outer"], byName["inner"], byName["checkpoint"]
	if o.Parent != 0 {
		t.Errorf("outer parent = %d, want 0", o.Parent)
	}
	if i.Parent != o.ID {
		t.Errorf("inner parent = %d, want outer id %d", i.Parent, o.ID)
	}
	if ev.Parent != i.ID || !ev.Instant {
		t.Errorf("checkpoint parent/instant = %d/%v, want %d/true", ev.Parent, ev.Instant, i.ID)
	}
	if i.Start < o.Start || i.End() > o.End() {
		t.Errorf("inner [%d,%d] not nested in outer [%d,%d]", i.Start, i.End(), o.Start, o.End())
	}
	if len(o.Attrs) != 1 || o.Attrs[0].Key != "size" || o.Attrs[0].Value() != int64(7) {
		t.Errorf("outer attrs = %+v, want one int size=7", o.Attrs)
	}
	if i.Dur <= 0 {
		t.Errorf("inner dur = %d, want > 0", i.Dur)
	}
}

// TestLaneAttribution checks that spans land on the lane they were
// started from and that out-of-range lanes are dropped, not misfiled.
func TestLaneAttribution(t *testing.T) {
	tr := New(2) // lanes 0,1,2
	tr.Lane(1).Scope(0).Start("a").End()
	tr.Lane(2).Scope(0).Start("b").End()
	if l := tr.Lane(3); l != nil {
		t.Fatalf("out-of-range lane = %v, want nil", l)
	}
	if l := tr.Lane(-1); l != nil {
		t.Fatalf("negative lane = %v, want nil", l)
	}
	lanes := map[string]int{}
	for _, r := range tr.Records() {
		lanes[r.Name] = r.Lane
	}
	if lanes["a"] != 1 || lanes["b"] != 2 {
		t.Errorf("lane attribution = %v, want a:1 b:2", lanes)
	}
}

// TestContextScope round-trips a scope through a context and confirms a
// disabled scope leaves the context untouched.
func TestContextScope(t *testing.T) {
	tr := New(1)
	sc := tr.Root()
	ctx := ContextWithScope(context.Background(), sc)
	if got := FromContext(ctx); got.Lane() != sc.Lane() {
		t.Error("scope did not round-trip through context")
	}
	base := context.Background()
	if ContextWithScope(base, Scope{}) != base {
		t.Error("disabled scope should return the context unchanged")
	}
	if FromContext(base).Enabled() {
		t.Error("empty context should yield a disabled scope")
	}
}

// TestLaneStress drives every lane from its own goroutine under -race:
// the single-writer-per-lane discipline must hold with concurrent Start,
// attribute, event, and End traffic plus the shared atomic ID sequence.
func TestLaneStress(t *testing.T) {
	const workers, spansPer = 8, 200
	tr := New(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := tr.Lane(w + 1).Scope(0)
			for i := 0; i < spansPer; i++ {
				sp := sc.Start("task").Int("i", int64(i))
				sp.Scope().Start("sub").End()
				sp.Event("tick")
				sp.End()
			}
		}(w)
	}
	root := tr.Root().Start("root")
	wg.Wait()
	root.End()

	recs := tr.Records()
	want := workers*spansPer*3 + 1
	if len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
	seen := map[SpanID]bool{}
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("duplicate span id %d", r.ID)
		}
		seen[r.ID] = true
	}
}

// TestWriteChrome decodes the exporter's output and checks the
// trace-event schema: metadata rows name every lane, complete events
// carry ts/dur/pid/tid, instants carry s:"t", and unfinished spans are
// flagged instead of dropped.
func TestWriteChrome(t *testing.T) {
	tr := New(2)
	root := tr.Root()
	outer := root.Start("outer")
	outer.Scope().Start("inner").End()
	outer.Scope().Event("blip")
	outer.End()
	tr.Lane(1).Scope(0).Start("dangling") // never ended

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v", err)
	}
	var meta, complete, instant, unfinished int
	threadNames := map[string]bool{}
	for _, ev := range got.TraceEvents {
		for _, k := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event missing required key %q: %v", k, ev)
			}
		}
		switch ev["ph"] {
		case "M":
			meta++
			args := ev["args"].(map[string]any)
			threadNames[args["name"].(string)] = true
		case "X":
			complete++
			if _, ok := ev["dur"]; !ok {
				t.Errorf("complete event missing dur: %v", ev)
			}
			if args, ok := ev["args"].(map[string]any); ok && args["unfinished"] == true {
				unfinished++
			}
		case "i":
			instant++
			if ev["s"] != "t" {
				t.Errorf("instant missing thread scope: %v", ev)
			}
		}
	}
	if meta != 3 || !threadNames["main"] || !threadNames["worker 0"] || !threadNames["worker 1"] {
		t.Errorf("thread metadata = %d rows %v, want main + worker 0 + worker 1", meta, threadNames)
	}
	if complete != 3 {
		t.Errorf("complete events = %d, want 3", complete)
	}
	if instant != 1 {
		t.Errorf("instant events = %d, want 1", instant)
	}
	if unfinished != 1 {
		t.Errorf("unfinished spans = %d, want 1", unfinished)
	}
	if err := tr.Lane(9).Tracer().WriteChrome(&buf); err == nil {
		t.Error("nil tracer WriteChrome should error")
	}
}

// TestCriticalPath builds a known tree and checks the backward walk:
// sequential children each land on the path (not just the last one),
// self times cover the gaps the walk attributes to each span, and path
// self times sum exactly to the root duration.
func TestCriticalPath(t *testing.T) {
	tr := New(1)
	// Hand-build records so durations are exact.
	lane := tr.Lane(0)
	mk := func(name string, parent SpanID, start, dur int64) SpanID {
		id := SpanID(tr.nextID.Add(1))
		lane.recs = append(lane.recs, Record{ID: id, Parent: parent, Name: name, Start: start, Dur: dur})
		return id
	}
	root := mk("run", 0, 0, 1000)
	mk("learn", root, 0, 100)          // first pipeline stage, ends at 100
	long := mk("fill", root, 100, 850) // second stage, ends at 950
	mk("dag", long, 200, 700)          // ends at 900
	mk("open", long, 100, -1)          // still open: skipped
	mk("other-root", 0, 0, 50)

	steps := tr.CriticalPath()
	names := make([]string, len(steps))
	var selfSum int64
	for i, s := range steps {
		names[i] = s.Name
		selfSum += s.SelfNS
	}
	if len(steps) != 4 || names[0] != "run" || names[1] != "learn" || names[2] != "fill" || names[3] != "dag" {
		t.Fatalf("critical path = %v, want [run learn fill dag]", names)
	}
	if steps[0].SelfNS != 50 { // only the 950..1000 tail is run's own
		t.Errorf("run self = %d, want 50", steps[0].SelfNS)
	}
	if steps[1].SelfNS != 100 { // learn is a leaf: full duration
		t.Errorf("learn self = %d, want 100", steps[1].SelfNS)
	}
	if steps[2].SelfNS != 150 { // 100..200 head + 900..950 tail
		t.Errorf("fill self = %d, want 150", steps[2].SelfNS)
	}
	if steps[3].SelfNS != 700 {
		t.Errorf("dag self = %d, want 700", steps[3].SelfNS)
	}
	if selfSum != 1000 {
		t.Errorf("path self times sum to %d, want the root duration 1000", selfSum)
	}
	wantDepths := []int{0, 1, 1, 2}
	for i, s := range steps {
		if s.Depth != wantDepths[i] {
			t.Errorf("step %s depth = %d, want %d", s.Name, s.Depth, wantDepths[i])
		}
	}

	out := FormatCriticalPath(steps)
	for _, want := range []string{"critical path", "run", "fill", "dag"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("formatted path missing %q:\n%s", want, out)
		}
	}
	var empty *Tracer
	if got := empty.CriticalPath(); got != nil {
		t.Errorf("nil tracer critical path = %v, want nil", got)
	}
	if FormatCriticalPath(nil) != "" {
		t.Error("empty path should format to empty string")
	}
}

// BenchmarkSpanEnabled measures the enabled-path cost of one span with an
// attribute — the number the ≤5% end-to-end overhead budget rests on.
func BenchmarkSpanEnabled(b *testing.B) {
	tr := New(1)
	sc := tr.Root()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.Start("bench").Int("i", int64(i)).End()
	}
}

// BenchmarkSpanDisabled is the nil-tracer counterpart; it must report
// zero allocations.
func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	sc := tr.Root()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.Start("bench").Int("i", int64(i)).End()
	}
}
