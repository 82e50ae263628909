// Package obs is the stdlib-only observability layer of the pipeline: an
// atomic metrics registry (counters, gauges, and exact mergeable
// histograms that double as stage timers), a deterministic JSON
// run-report, and — in the debug subpackage — an expvar/pprof HTTP server.
//
// Every handle is nil-safe: a nil *Registry hands out nil *Counter,
// *Gauge, and *Hist values whose methods are allocation-free no-ops, so
// instrumented hot paths cost nothing when observability is disabled.
// Callers resolve handles once (outside loops) and mutate them atomically.
//
// Counter content is deterministic for the synthesis pipeline: every
// counter records a schedule-independent quantity (tests run, cache
// misses, rows flagged), so a run-report's counters section is identical
// at any worker count and safe to diff in tests. Wall-clock lives only in
// histograms, which the report keeps in a separate hists section.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The nil counter is a
// no-op; methods never allocate.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move in both directions (worker counts,
// queue depths). The nil gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the gauge.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value reads the gauge; 0 on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry hands out named metric handles. The nil registry hands out nil
// handles, making every downstream mutation free; obtain handles once per
// stage, not per row.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
	cvecs    map[string]*CounterVec
	hvecs    map[string]*HistogramVec
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Hist{},
		cvecs:    map[string]*CounterVec{},
		hvecs:    map[string]*HistogramVec{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the exact histogram registered under name, creating
// it (with defaultHistShards writer shards) on first use. A nil registry
// returns a nil (no-op) histogram. Stage timers and request latencies
// share this one kind: quantiles cover every observation ever made and
// Observe is lock-free.
func (r *Registry) Histogram(name string) *Hist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHist(defaultHistShards())
		r.hists[name] = h
	}
	return h
}

// CounterVec returns the labeled counter family registered under name,
// creating it with the given label keys on first use. Label keys are
// fixed at first registration; later calls return the existing vector
// regardless of the keys argument. A nil registry returns a nil vector.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.cvecs[name]
	if v == nil {
		v = &CounterVec{v: newVec(name, append([]string(nil), keys...), func() *Counter { return &Counter{} })}
		r.cvecs[name] = v
	}
	return v
}

// HistogramVec returns the labeled exact-histogram family registered
// under name, creating it with the given label keys on first use. A nil
// registry returns a nil vector.
func (r *Registry) HistogramVec(name string, keys ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.hvecs[name]
	if v == nil {
		shards := defaultHistShards()
		v = &HistogramVec{
			v:      newVec(name, append([]string(nil), keys...), func() *Hist { return NewHist(shards) }),
			shards: shards,
		}
		r.hvecs[name] = v
	}
	return v
}
