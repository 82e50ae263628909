package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// Snapshot is a point-in-time copy of a registry. Counters (labeled or
// not) are schedule-independent and identical across worker counts on
// the same seed; gauges and histogram timings (stage timers included) may
// legitimately differ between runs. LabeledCounters and Hists are sorted
// by name then label values — unlabeled histograms first, then labeled
// families — so the sections are deterministic and golden-testable.
type Snapshot struct {
	Counters        map[string]int64 `json:"counters"`
	LabeledCounters []LabeledCounter `json:"labeled_counters,omitempty"`
	Gauges          map[string]int64 `json:"gauges,omitempty"`
	Hists           []HistSnapshot   `json:"hists,omitempty"`
}

// Snapshot copies the registry's current state. Safe on a nil registry
// (returns an empty snapshot) and concurrently with metric updates.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Hist, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	cvecs := make(map[string]*CounterVec, len(r.cvecs))
	for name, v := range r.cvecs {
		cvecs[name] = v
	}
	hvecs := make(map[string]*HistogramVec, len(r.hvecs))
	for name, v := range r.hvecs {
		hvecs[name] = v
	}
	r.mu.Unlock()

	for name, c := range counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		s.Gauges[name] = g.Value()
	}
	names := make([]string, 0, len(cvecs))
	for name := range cvecs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := cvecs[name].v
		for _, c := range v.sortedChildren() {
			s.LabeledCounters = append(s.LabeledCounters, LabeledCounter{
				Name: name, Labels: v.labels(c), Value: c.metric.Value(),
			})
		}
	}

	names = names[:0]
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Hists = append(s.Hists, hists[name].Snapshot(name))
	}

	names = names[:0]
	for name := range hvecs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := hvecs[name].v
		for _, c := range v.sortedChildren() {
			hs := c.metric.Snapshot(name)
			hs.Labels = v.labels(c)
			s.Hists = append(s.Hists, hs)
		}
	}
	return s
}

// RunReport is the JSON document written by -report: which command ran,
// plus the full metrics snapshot and — when tracing was on — the trace's
// critical path. The critical path, like the hists section, is wall-clock
// derived and never diffed by tests.
type RunReport struct {
	Command string `json:"command"`
	Snapshot
	CriticalPath []trace.PathStep `json:"critical_path,omitempty"`
}

// WriteReport snapshots reg and writes a RunReport to path as indented
// JSON. A nil registry writes an empty (but valid) report.
func WriteReport(path, command string, reg *Registry) error {
	return WriteReportWithTrace(path, command, reg, nil)
}

// WriteReportWithTrace is WriteReport plus the critical path of tr
// embedded as the report's critical_path field; a nil tracer omits it.
func WriteReportWithTrace(path, command string, reg *Registry, tr *trace.Tracer) error {
	rep := RunReport{Command: command, Snapshot: reg.Snapshot(), CriticalPath: tr.CriticalPath()}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: write report: %w", err)
	}
	return nil
}

// StageSummary renders every histogram as an aligned human-readable
// table (one line per histogram), for printing after synthesis. Quantiles
// are the exact bounds' upper ends. Empty string when nothing was
// recorded or the registry is nil.
func (r *Registry) StageSummary() string {
	s := r.Snapshot()
	if len(s.Hists) == 0 {
		return ""
	}
	us := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %12s %12s %12s %12s\n", "stage", "count", "total", "p50", "p99", "max")
	for _, h := range s.Hists {
		fmt.Fprintf(&b, "%-16s %8d %12s %12s %12s %12s\n",
			h.Name, h.Count, us(h.SumNS), us(h.P50NS), us(h.P99NS), us(h.MaxNS))
	}
	return b.String()
}
