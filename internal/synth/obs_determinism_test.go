package synth_test

import (
	"reflect"
	"testing"
	"time"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
	"github.com/guardrail-db/guardrail/internal/synth"
)

// TestObsCountersDeterministicAcrossWorkers: every counter the pipeline
// records — CI tests, edges removed, aux samples, DAGs, pruned programs,
// cache hits/misses — must be schedule-independent: identical at workers
// 1, 4, and 8 on the same seed. Gauges are excluded (synth.workers
// legitimately differs) and stage timings are wall-clock by design.
func TestObsCountersDeterministicAcrossWorkers(t *testing.T) {
	spec, err := bn.SpecByID(6)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) map[string]int64 {
		rel, err := spec.Generate(0.05, 5)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		if _, err := synth.Synthesize(rel, synth.Options{Epsilon: 0.02, Seed: 11, Workers: workers, Obs: reg}); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Counters
	}
	serial := run(1)
	for _, key := range []string{"pc.ci_tests", "aux.samples", "synth.dags", "synth.stmt_cache_misses", "synth.programs_deduped", "analysis.solver_calls"} {
		if _, ok := serial[key]; !ok {
			t.Errorf("counter %q missing from instrumented run: %v", key, serial)
		}
	}
	for _, workers := range []int{4, 8} {
		if got := run(workers); !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d counters differ from serial:\nserial: %v\ngot:    %v", workers, serial, got)
		}
	}
}

// TestStageTimesAgree: each synth stage's Result timing field, its trace
// span's Dur and its histogram's sum are one measurement.
func TestStageTimesAgree(t *testing.T) {
	rel, err := bn.PostalChain(8).Sample(1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg, tr := obs.New(), trace.New(2)
	res, err := synth.Synthesize(rel, synth.Options{Seed: 3, Workers: 2, Obs: reg, Trace: tr.Root()})
	if err != nil {
		t.Fatal(err)
	}
	durs := map[string]int64{}
	for _, r := range tr.Records() {
		durs[r.Name] = r.Dur
	}
	for _, c := range []struct {
		stage string
		got   time.Duration
	}{{"synth.learn", res.LearnTime}, {"synth.enum", res.EnumTime}, {"synth.fill", res.FillTime}} {
		h := reg.Histogram(c.stage).Snapshot(c.stage)
		if c.got <= 0 || durs[c.stage] != int64(c.got) || h.Count != 1 || h.SumNS != int64(c.got) {
			t.Errorf("%s: Result %d ns, trace Dur %d ns, hist count %d sum %d ns; want one duration",
				c.stage, c.got, durs[c.stage], h.Count, h.SumNS)
		}
	}
}

// TestSelectStageCountsPerStatement: select's per-statement stages run
// once per distinct filled statement, inside the statement-cache miss, so
// their histogram counts are schedule-independent and bounded by the
// cache's misses; each observation is also a trace span.
func TestSelectStageCountsPerStatement(t *testing.T) {
	spec, err := bn.SpecByID(1)
	if err != nil {
		t.Fatal(err)
	}
	stages := []string{"synth.verify", "synth.canon"}
	run := func(workers int) map[string]int64 {
		rel, err := spec.Generate(0.1, 3)
		if err != nil {
			t.Fatal(err)
		}
		reg, tr := obs.New(), trace.New(workers)
		if _, err := synth.Synthesize(rel, synth.Options{Seed: 3, Workers: workers, Obs: reg, Trace: tr.Root()}); err != nil {
			t.Fatal(err)
		}
		spans := map[string]int64{}
		for _, r := range tr.Records() {
			spans[r.Name]++
		}
		counts := map[string]int64{}
		for _, name := range stages {
			counts[name] = reg.Histogram(name).Snapshot(name).Count
			if counts[name] != spans[name] {
				t.Errorf("workers=%d: %s histogram counts %d, trace has %d spans", workers, name, counts[name], spans[name])
			}
		}
		misses := reg.Snapshot().Counters["synth.stmt_cache_misses"]
		if c := counts["synth.verify"]; c == 0 || c > misses || counts["synth.canon"] > c {
			t.Errorf("workers=%d: stage counts %v against %d cache misses", workers, counts, misses)
		}
		return counts
	}
	serial := run(1)
	if got := run(4); !reflect.DeepEqual(got, serial) {
		t.Errorf("workers=4 stage counts %v differ from serial %v", got, serial)
	}
}
