package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterVecDeterministicOrder(t *testing.T) {
	r := New()
	cv := r.CounterVec("serve.endpoint.requests", "endpoint", "status")
	// Touch children in scrambled order; the snapshot must sort them.
	cv.With("violations", "200").Add(3)
	cv.With("check", "429").Inc()
	cv.With("check", "200").Add(7)
	cv.With("drift", "200").Add(2)

	snap := r.Snapshot()
	if len(snap.LabeledCounters) != 4 {
		t.Fatalf("labeled counters = %d, want 4", len(snap.LabeledCounters))
	}
	var got []string
	for _, lc := range snap.LabeledCounters {
		got = append(got, fmt.Sprintf("%s|%s=%s|%s=%s|%d", lc.Name,
			lc.Labels[0].Key, lc.Labels[0].Value, lc.Labels[1].Key, lc.Labels[1].Value, lc.Value))
	}
	want := []string{
		"serve.endpoint.requests|endpoint=check|status=200|7",
		"serve.endpoint.requests|endpoint=check|status=429|1",
		"serve.endpoint.requests|endpoint=drift|status=200|2",
		"serve.endpoint.requests|endpoint=violations|status=200|3",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("order mismatch:\ngot:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// Same name returns the same family and the same child.
	if r.CounterVec("serve.endpoint.requests").With("check", "200") != cv.With("check", "200") {
		t.Fatal("same label set resolved to different counters")
	}
}

func TestVecCardinalityBound(t *testing.T) {
	r := New()
	cv := r.CounterVec("wide", "id")
	for i := 0; i < vecMaxChildren+40; i++ {
		cv.With(fmt.Sprintf("id-%04d", i)).Inc()
	}
	snap := r.Snapshot()
	var total, overflow int64
	children := 0
	for _, lc := range snap.LabeledCounters {
		if lc.Name != "wide" {
			continue
		}
		children++
		total += lc.Value
		if lc.Labels[0].Value == vecOverflowValue {
			overflow = lc.Value
		}
	}
	// vecMaxChildren distinct children, then the overflow child absorbs
	// the remaining 40 increments — no counts dropped.
	if children != vecMaxChildren+1 {
		t.Fatalf("children = %d, want %d", children, vecMaxChildren+1)
	}
	if total != vecMaxChildren+40 {
		t.Fatalf("total = %d, want %d (counts must never be dropped)", total, vecMaxChildren+40)
	}
	if overflow != 40 {
		t.Fatalf("overflow child = %d, want 40", overflow)
	}
}

func TestVecNilAndMiscountedSafe(t *testing.T) {
	var cv *CounterVec
	cv.With("a", "b").Inc() // nil vec → nil counter → no-op
	var hv *HistogramVec
	hv.With("a").Observe(5)

	r := New()
	// Too few and too many values must not panic; both address a child
	// with the value list fixed to the declared key count.
	c := r.CounterVec("pad", "k1", "k2").With("only-one")
	c.Inc()
	r.CounterVec("pad").With("a", "b", "c-extra").Inc()
	snap := r.Snapshot()
	var n int
	for _, lc := range snap.LabeledCounters {
		if lc.Name == "pad" {
			n++
			if len(lc.Labels) != 2 {
				t.Fatalf("child has %d labels, want 2", len(lc.Labels))
			}
		}
	}
	if n != 2 {
		t.Fatalf("pad children = %d, want 2", n)
	}
}

func TestHistogramVecSnapshot(t *testing.T) {
	r := New()
	hv := r.HistogramVec("serve.request.latency", "dataset", "endpoint")
	hv.With("postal", "check").Observe(100)
	hv.With("postal", "check").Observe(200)
	hv.With("postal", "rectify").Observe(300)

	snap := r.Snapshot()
	if len(snap.Hists) != 2 {
		t.Fatalf("hists = %d, want 2", len(snap.Hists))
	}
	h0 := snap.Hists[0]
	if h0.Name != "serve.request.latency" || h0.Count != 2 || h0.SumNS != 300 {
		t.Fatalf("first child = %+v", h0)
	}
	wantLabels := []Label{{Key: "dataset", Value: "postal"}, {Key: "endpoint", Value: "check"}}
	if fmt.Sprint(h0.Labels) != fmt.Sprint(wantLabels) {
		t.Fatalf("labels = %v, want %v", h0.Labels, wantLabels)
	}
}

func TestVecConcurrent(t *testing.T) {
	r := New()
	cv := r.CounterVec("conc", "worker")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", w%4)
			for i := 0; i < 1000; i++ {
				cv.With(label).Inc()
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, lc := range r.Snapshot().LabeledCounters {
		total += lc.Value
	}
	if total != 8000 {
		t.Fatalf("total = %d, want 8000", total)
	}
}
