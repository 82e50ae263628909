package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/guardrail-db/guardrail/internal/auxdist"
	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/graph"
	"github.com/guardrail-db/guardrail/internal/pc"
	"github.com/guardrail-db/guardrail/internal/stats"
	"github.com/guardrail-db/guardrail/internal/synth"
)

// synthScale shrinks the 12 Table-2 analogs to 500–4.9k rows each.
const synthScale = 0.1

// synthSamples is how many draws of each dataset one run cycles through.
const synthSamples = 8

// loadRuns is how often set-up loads the CSVs; one load takes a fraction
// of a second, so more repeats steady the setup_s median.
const loadRuns = 5

// runSynthPaper times cold core.Synthesize passes over the 12 Table-2
// analogs loaded through dataset.FromCSV, as `guardrail synth` loads them.
// Each dataset is drawn synthSamples times from the seed; pass p runs
// sample p mod synthSamples, so one run averages over several draws.
func runSynthPaper(cfg config, rep *report) error {
	csvs := make([][][]byte, synthSamples)
	rows := 0
	for k := range csvs {
		for _, spec := range bn.Registry {
			rel, err := spec.Generate(synthScale, cfg.seed*synthSamples+int64(k)+int64(spec.ID)*7919)
			if err != nil {
				return fmt.Errorf("generating %s: %w", spec.Name, err)
			}
			var b bytes.Buffer
			if err := rel.ToCSV(&b); err != nil {
				return err
			}
			csvs[k] = append(csvs[k], b.Bytes())
			if k == 0 {
				rows += rel.NumRows()
			}
		}
	}

	var sets [][]*dataset.Relation
	var setups []float64
	var sp speed
	for r := 0; r < loadRuns; r++ {
		t0 := time.Now()
		sets = sets[:0]
		for _, sample := range csvs {
			var rels []*dataset.Relation
			for i, data := range sample {
				rel, err := dataset.FromCSV(bytes.NewReader(data), bn.Registry[i].Name)
				if err != nil {
					return fmt.Errorf("loading %s: %w", bn.Registry[i].Name, err)
				}
				rels = append(rels, rel)
			}
			sets = append(sets, rels)
		}
		setups = append(setups, time.Since(t0).Seconds())
		sp.probe()
	}
	rep.e2e["setup_s"] = median(setups)
	rep.layer["dataset.load_s"] = median(setups)

	// Determinism reference: the serial pipeline must select the same
	// programs, byte for byte, as every timed pass at workers=2. Its
	// coverage is the selected programs' coverage at any worker count.
	serial := make([][]string, len(sets))
	var coverage []float64
	for k, rels := range sets {
		for _, rel := range rels {
			res, err := core.Synthesize(rel, synthOptions(cfg.seed, 1))
			if err != nil {
				return fmt.Errorf("%s: serial reference: %w", rel.Name(), err)
			}
			serial[k] = append(serial[k], dsl.Format(res.Program, rel))
			coverage = append(coverage, res.Coverage)
		}
	}

	var rec *recorder
	passes := synthSamples
	if cfg.trace {
		rec = newRecorder()
		passes = 2 * synthSamples
	}
	first := make([][]string, len(sets))
	var passTimes, tracedTimes []float64
	calls := map[[2]int][]float64{} // (sample, dataset) -> untraced call times, ms
	layerTotals := map[string][]float64{}
	// A traced run keeps each sample's untraced results for their work
	// counts, which depend only on the inputs.
	results := make([][]*core.Result, len(sets))
	start := time.Now()
	for pass := 0; pass < passes || time.Since(start) < cfg.seconds; pass++ {
		k := pass % synthSamples
		rels := sets[k]
		// A traced run alternates cycles over the samples: untraced passes
		// run core.Synthesize (for trace.overhead_pct), traced ones run the
		// same pipeline layer by layer under spans.
		traced := rec != nil && (pass/synthSamples)%2 == 1
		root := rec.start("synth.pass", 0, int64(pass))
		t0 := time.Now()
		texts := make([]string, len(rels))
		if rec != nil && !traced {
			results[k] = make([]*core.Result, len(rels))
		}
		for i, rel := range rels {
			d0 := time.Now()
			var prog *dsl.Program
			var err error
			if traced {
				prog, err = synthesizeLayered(rel, cfg.seed, rec, root, int64(pass))
			} else {
				var res *core.Result
				if res, err = core.Synthesize(rel, synthOptions(cfg.seed, workers)); err == nil {
					prog = res.Program
					if rec != nil {
						results[k][i] = res
					}
				}
			}
			if !traced {
				calls[[2]int{k, i}] = append(calls[[2]int{k, i}], ms(time.Since(d0)))
			}
			rep.op(err)
			if err != nil {
				continue
			}
			texts[i] = dsl.Format(prog, rel)
		}
		wall := time.Since(t0)
		rec.end(root)
		sp.probe()
		if first[k] == nil {
			first[k] = texts
		}
		for i := range texts {
			rep.check(texts[i] == first[k][i], "pass %d: %s program differs from the first pass on the same sample", pass+1, rels[i].Name())
			rep.check(texts[i] == serial[k][i], "pass %d: %s program differs from the workers=1 run", pass+1, rels[i].Name())
		}
		if !traced {
			passTimes = append(passTimes, wall.Seconds())
			continue
		}
		tracedTimes = append(tracedTimes, wall.Seconds())
		self := layerSelf(rec.snapshot(), int64(pass))
		attributed := time.Duration(0)
		for name, d := range self {
			layerTotals[name] = append(layerTotals[name], d.Seconds())
			attributed += d
		}
		rep.check(wallAgrees(attributed, wall), "pass %d: layer self times sum to %v, the pass's wall is %v", pass+1, attributed, wall)
	}

	// One dataset's latency is its median call; datasets differ by two
	// orders of magnitude, so they are combined by geometric mean.
	var perDataset []float64
	for _, ts := range calls {
		perDataset = append(perDataset, median(ts))
	}
	rep.e2e["latency_ms"] = geomean(perDataset)
	rep.e2e["rows_per_s"] = float64(rows) / median(passTimes)
	rep.e2e["quality"] = mean(coverage)
	sp.normalize(rep)

	rep.layer["synth_s"] = median(passTimes)
	rep.layer["synth_coverage"] = mean(coverage)
	if rec != nil {
		rep.layer["auxdist.sample_s"] = median(layerTotals["auxdist.sample"])
		rep.layer["pc.learn_s"] = median(layerTotals["pc.learn"])
		rep.layer["graph.enum_s"] = median(layerTotals["graph.enum"])
		rep.layer["synth.select_s"] = median(layerTotals["synth.select"])
		rep.layer["synth.rest_s"] = median(layerTotals["synth.pass"])
		rep.layer["synth.traced_pass_s"] = median(tracedTimes)
		// Work counts are per pass, averaged over the samples.
		var ciTests, dags, hits, misses, pruned, deduped, solverCalls float64
		for _, rs := range results {
			for _, res := range rs {
				if res == nil {
					continue // that call failed, and was counted as failed
				}
				ciTests += float64(res.CITests)
				dags += float64(res.NumDAGs)
				hits += float64(res.CacheHits)
				misses += float64(res.CacheMisses)
				pruned += float64(res.PrunedPrograms)
				deduped += float64(res.DedupedPrograms)
				solverCalls += float64(res.SolverCalls)
			}
		}
		rep.layer["pc.ci_tests"] = ciTests / synthSamples
		rep.layer["graph.dags"] = dags / synthSamples
		rep.layer["synth.cache_lookups"] = (hits + misses) / synthSamples
		rep.layer["synth.cache_hit_ratio"] = hits / max(hits+misses, 1)
		rep.layer["synth.pruned"] = pruned / synthSamples
		rep.layer["synth.deduped"] = deduped / synthSamples
		rep.layer["synth.solver_calls"] = solverCalls / synthSamples
		rep.layer["trace.overhead_pct"] = 100 * (median(tracedTimes)/median(passTimes) - 1)
		dumpSpans(rec, "synth-paper", cfg.seed)
	}
	fmt.Fprintf(os.Stderr, "synth-paper: %d untraced + %d traced passes over %d samples of %d datasets (%d rows a pass), pass median %.3fs\n",
		len(passTimes), len(tracedTimes), synthSamples, len(bn.Registry), rows, median(passTimes))
	return nil
}

func synthOptions(seed int64, w int) core.Options {
	return core.Options{Seed: seed, Workers: w}
}

// maxDAGs is synth.Options' default cap on MEC enumeration, which
// synthesizeLayered passes to graph.EnumerateMEC as core.Synthesize does.
const maxDAGs = 256

// synthesizeLayered runs core.Synthesize's pipeline one public layer call
// at a time, each under a span: auxiliary sampling, PC (with pc's own
// default alpha and conditioning cap, which synth's defaults equal), MEC
// enumeration, and fill-and-select. It exists only for the span timings;
// its program must equal core.Synthesize's, which every traced pass checks.
func synthesizeLayered(rel *dataset.Relation, seed int64, rec *recorder, parent int, group int64) (*dsl.Program, error) {
	s := rec.start("auxdist.sample", parent, group)
	data, err := auxdist.Sample(rel, auxdist.Options{Seed: seed, Workers: workers})
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.start("pc.learn", parent, group)
	learned, err := pc.LearnFrom(stats.Tester(data), pc.Options{Workers: workers})
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.start("graph.enum", parent, group)
	dags, err := graph.EnumerateMEC(learned.CPDAG, maxDAGs)
	rec.end(s)
	if err != nil && !errors.Is(err, graph.ErrEnumLimit) {
		return nil, err
	}
	s = rec.start("synth.select", parent, group)
	sel, err := synth.SelectProgram(rel, dags, data, synth.Options{Seed: seed, Workers: workers})
	rec.end(s)
	if err != nil {
		return nil, err
	}
	return sel.Program, nil
}
