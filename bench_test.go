// Package guardrail's root benchmarks regenerate every table and figure of
// the paper's evaluation (one testing.B bench per artifact; see DESIGN.md
// §4 for the index) plus the ablation benches for the design choices
// DESIGN.md calls out: the statement-level cache, predicate pushdown, and
// MEC enumeration vs the unconstrained orientation space.
//
// Benches run at a small scale so `go test -bench=.` stays laptop-sized;
// `cmd/experiments -scale 1.0` reproduces the full-size runs recorded in
// EXPERIMENTS.md.
package guardrail_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"github.com/guardrail-db/guardrail/internal/auxdist"
	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/compile"
	"github.com/guardrail-db/guardrail/internal/errgen"
	"github.com/guardrail-db/guardrail/internal/experiments"
	"github.com/guardrail-db/guardrail/internal/graph"
	"github.com/guardrail-db/guardrail/internal/ml"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
	"github.com/guardrail-db/guardrail/internal/pc"
	"github.com/guardrail-db/guardrail/internal/repair"
	"github.com/guardrail-db/guardrail/internal/sketch"
	"github.com/guardrail-db/guardrail/internal/smt"
	"github.com/guardrail-db/guardrail/internal/sqlexec"
	"github.com/guardrail-db/guardrail/internal/stats"
	"github.com/guardrail-db/guardrail/internal/stats/incr"
	"github.com/guardrail-db/guardrail/internal/synth"
)

// benchCfg keeps per-iteration work small while touching every code path.
func benchCfg() experiments.Config {
	return experiments.Config{Scale: 0.02, Seed: 1, Datasets: []int{2, 6}}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table7(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table8(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(benchCfg(), 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSMTBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SMTBaseline(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- pipeline-stage benches ---

func BenchmarkAuxSampling(b *testing.B) {
	rel, err := bn.PostalChain(16).Sample(5000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := auxdist.Sample(rel, auxdist.Options{Shifts: 8, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPCLearn(b *testing.B) {
	rel, err := bn.RandomSEM(bn.SEMSpec{Attrs: 10, Seed: 3}).Sample(3000, 3)
	if err != nil {
		b.Fatal(err)
	}
	aux, err := auxdist.Sample(rel, auxdist.Options{Shifts: 8, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.Learn(aux, pc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// codesOnly hides a dataset's packed columns, so GTest counts its rows.
type codesOnly struct{ stats.Data }

// BenchmarkGTest times one G² test per conditioning-set size on an
// auxiliary sample: over the packed columns (popcount path) and over the
// same sample's codes (row loop into flat strata).
func BenchmarkGTest(b *testing.B) {
	rel, err := bn.RandomSEM(bn.SEMSpec{Attrs: 10, Seed: 3}).Sample(3000, 3)
	if err != nil {
		b.Fatal(err)
	}
	aux, err := auxdist.Sample(rel, auxdist.Options{Shifts: 8, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	for _, view := range []struct {
		name string
		d    stats.Data
	}{{"packed", aux}, {"codes", codesOnly{aux}}} {
		for k := 0; k <= 3; k++ {
			z := []int{2, 3, 4}[:k]
			b.Run(fmt.Sprintf("%s/z=%d", view.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := stats.GTest(view.d, 0, 1, z); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTableTest times incr.Table.Test, the CI test incremental
// synthesis and drift-aware re-learning run over merged window tables,
// at conditioning-set sizes 0–2 on raw codes.
func BenchmarkTableTest(b *testing.B) {
	rel, err := bn.RandomSEM(bn.SEMSpec{Attrs: 10, Seed: 3}).Sample(3000, 3)
	if err != nil {
		b.Fatal(err)
	}
	tab := incr.FromData(auxdist.Identity(rel))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k <= 2; k++ {
			if _, err := tab.Test(0, 1, []int{2, 3}[:k]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSynthesizeEndToEnd(b *testing.B) {
	rel, err := bn.PostalChain(16).Sample(3000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Synthesize(rel, core.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeTraced is the overhead counterpart of
// BenchmarkSynthesizeEndToEnd: the identical pipeline with a live tracer
// attached. The acceptance budget is ≤5% over the untraced bench —
// compare the two with benchstat (or eyeball ns/op) after
// `go test -bench 'SynthesizeEndToEnd|SynthesizeTraced' -benchtime 10x .`
func BenchmarkSynthesizeTraced(b *testing.B) {
	rel, err := bn.PostalChain(16).Sample(3000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trace.New(1)
		if _, err := core.Synthesize(rel, core.Options{Seed: 1, Trace: tr.Root()}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- guard-engine benches (DESIGN.md §13) ---
//
// Each bench runs the same guard on the AST interpreter and on the
// compiled engine (internal/dsl/compile); the compiled/ast ns/op ratio is
// the translation-validated speedup the compile pipeline buys. The dirty
// relation carries injected errors so the violation paths stay hot.

// benchGuardFixture synthesizes a postal-chain program and a lightly
// corrupted relation for the engine benches. The 256-code chain yields
// GIVEN-group statements with hundreds of branches — the dictionary-scale
// regime the decision-table dispatch is built for; the interpreter scans
// half the branch list per statement on an average row.
func benchGuardFixture(b *testing.B) (*dsl.Program, *dataset.Relation) {
	b.Helper()
	rel, err := bn.PostalChain(256).Sample(6000, 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Synthesize(rel, core.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	dirty := rel.Clone()
	if _, err := errgen.Inject(dirty, errgen.Options{Rate: 0.01, MinErrors: 20, Seed: 2}); err != nil {
		b.Fatal(err)
	}
	return res.Program, dirty
}

// benchGuardEngines runs fn once per engine constructor under a
// sub-bench named for the engine's backend.
func benchGuardEngines(b *testing.B, prog *dsl.Program, strategy core.Strategy, fn func(b *testing.B, g *core.Guard)) {
	b.Helper()
	for _, eng := range []*core.Engine{core.NewEngine(prog), core.CompileEngine(prog, compile.Options{})} {
		if err := eng.Fallback(); err != nil {
			b.Fatal(err)
		}
		b.Run("engine="+eng.Backend(), func(b *testing.B) {
			g := eng.Guard(strategy)
			b.ReportAllocs()
			b.ResetTimer()
			fn(b, g)
		})
	}
}

func BenchmarkGuardCheckRow(b *testing.B) {
	prog, rel := benchGuardFixture(b)
	row := rel.Row(0, nil)
	benchGuardEngines(b, prog, core.Ignore, func(b *testing.B, g *core.Guard) {
		for i := 0; i < b.N; i++ {
			if _, err := g.CheckRow(row); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGuardApply(b *testing.B) {
	prog, rel := benchGuardFixture(b)
	benchGuardEngines(b, prog, core.Ignore, func(b *testing.B, g *core.Guard) {
		for i := 0; i < b.N; i++ {
			if _, err := g.Apply(rel); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGuardStreamCSV(b *testing.B) {
	prog, rel := benchGuardFixture(b)
	var src bytes.Buffer
	if err := rel.ToCSV(&src); err != nil {
		b.Fatal(err)
	}
	benchGuardEngines(b, prog, core.Ignore, func(b *testing.B, g *core.Guard) {
		for i := 0; i < b.N; i++ {
			if _, err := g.StreamCSV(bytes.NewReader(src.Bytes()), io.Discard, rel); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGuardCompile prices the compilation itself — the one-time cost
// the per-row speedup amortizes.
func BenchmarkGuardCompile(b *testing.B) {
	prog, _ := benchGuardFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := compile.Compile(prog, compile.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- worker-pool scaling benches (DESIGN.md §9) ---
//
// Each bench sweeps the pipeline's Workers option so the CI bench lane can
// print serial-vs-parallel speedups from one run. Results are identical at
// every worker count (see the determinism regression tests); only
// wall-clock changes.

var workerCounts = []int{1, 2, 4, 8}

func BenchmarkAuxSamplingWorkers(b *testing.B) {
	rel, err := bn.PostalChain(16).Sample(5000, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := auxdist.Sample(rel, auxdist.Options{Shifts: 8, Seed: 1, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPCLearnWorkers(b *testing.B) {
	rel, err := bn.RandomSEM(bn.SEMSpec{Attrs: 10, Seed: 3}).Sample(3000, 3)
	if err != nil {
		b.Fatal(err)
	}
	aux, err := auxdist.Sample(rel, auxdist.Options{Shifts: 8, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pc.Learn(aux, pc.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFillWorkers times the Alg. 2 inner loop — LNT screening,
// statement filling, verification, and coverage scoring across the MEC —
// at each worker count, on a fixed pre-enumerated MEC.
func BenchmarkFillWorkers(b *testing.B) {
	rel, err := bn.PostalChain(16).Sample(3000, 1)
	if err != nil {
		b.Fatal(err)
	}
	aux, err := auxdist.Sample(rel, auxdist.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	learned, err := pc.Learn(aux, pc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	dags, err := graph.EnumerateMEC(learned.CPDAG, 256)
	if err != nil && err != graph.ErrEnumLimit {
		b.Fatal(err)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := synth.SelectProgram(rel, dags, aux, synth.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSynthesizeWorkers is the headline scaling bench: the end-to-end
// pipeline (aux sampling, PC, MEC enumeration, filling, selection) on an
// experiment relation at each worker count.
func BenchmarkSynthesizeWorkers(b *testing.B) {
	spec, err := bn.SpecByID(2)
	if err != nil {
		b.Fatal(err)
	}
	rel, err := spec.Generate(0.15, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Synthesize(rel, core.Options{Seed: 1, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ablation benches (DESIGN.md §6) ---

// BenchmarkStatementCache measures Alg. 1 filling across a MEC with and
// without the statement-level cache of §7.
func BenchmarkStatementCache(b *testing.B) {
	rel, err := bn.PostalChain(16).Sample(3000, 1)
	if err != nil {
		b.Fatal(err)
	}
	aux, err := auxdist.Sample(rel, auxdist.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	learned, err := pc.Learn(aux, pc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	dags, err := graph.EnumerateMEC(learned.CPDAG, 64)
	if err != nil && err != graph.ErrEnumLimit {
		b.Fatal(err)
	}
	sketches := make([]sketch.Prog, len(dags))
	for i, d := range dags {
		sketches[i] = sketch.FromDAG(d)
	}
	b.Run("with-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache := &synth.StatementCache{}
			for _, sk := range sketches {
				synth.FillProgram(rel, sk, synth.FillOptions{}, cache)
			}
		}
	})
	b.Run("without-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, sk := range sketches {
				synth.FillProgram(rel, sk, synth.FillOptions{}, nil)
			}
		}
	})
}

// BenchmarkDedup measures the Alg. 2 inner loop with and without
// equivalence-driven candidate dedup: canonicalization cost up front
// against coverage scoring saved on semantically duplicate fills. The
// selected program is identical either way (see the synth selection
// tests).
func BenchmarkDedup(b *testing.B) {
	rel, err := bn.PostalChain(16).Sample(3000, 1)
	if err != nil {
		b.Fatal(err)
	}
	aux, err := auxdist.Sample(rel, auxdist.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	learned, err := pc.Learn(aux, pc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	dags, err := graph.EnumerateMEC(learned.CPDAG, 256)
	if err != nil && err != graph.ErrEnumLimit {
		b.Fatal(err)
	}
	b.Run("with-dedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := synth.SelectProgram(rel, dags, aux, synth.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-dedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := synth.SelectProgram(rel, dags, aux, synth.Options{NoDedup: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPushdown measures the SQL executor with and without predicate
// pushdown below the ML prediction step.
func BenchmarkPushdown(b *testing.B) {
	rel, err := bn.Hospital().Sample(6000, 1)
	if err != nil {
		b.Fatal(err)
	}
	rel.SetName("hospital")
	model, err := ml.Train(rel, rel.AttrIndex("dysp"))
	if err != nil {
		b.Fatal(err)
	}
	const q = "SELECT COUNT(*) FROM hospital WHERE floor = 'floor_v0' AND PREDICT(dysp) = 'dysp_v0'"
	models := map[string]ml.Model{"dysp": model}
	b.Run("with-pushdown", func(b *testing.B) {
		env := &sqlexec.Env{Models: models}
		for i := 0; i < b.N; i++ {
			if _, err := sqlexec.Exec(q, rel, env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-pushdown", func(b *testing.B) {
		env := &sqlexec.Env{Models: models, DisablePushdown: true}
		for i := 0; i < b.N; i++ {
			if _, err := sqlexec.Exec(q, rel, env); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGuardedQuery runs the guarded PREDICT query end to end: a
// compiled rectify guard vets a dirty 200k-row PostalChain table before a
// logistic model, trained on the table's first 6k rows, predicts Country
// for the grouped aggregate.
func BenchmarkGuardedQuery(b *testing.B) {
	table, err := bn.PostalChain(256).Sample(200_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := errgen.Inject(table, errgen.Options{Rate: 0.01, RandomStringProb: 0.3, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	table.SetName("t")
	first := make([]int, 6000)
	for i := range first {
		first[i] = i
	}
	train := table.SelectRows(first)
	res, err := core.Synthesize(train, core.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := dsl.Parse(dsl.Format(res.Program, train), table)
	if err != nil {
		b.Fatal(err)
	}
	guard := core.NewGuard(prog, core.Rectify)
	if _, err := guard.Compile(compile.Options{}); err != nil {
		b.Fatal(err)
	}
	label := table.AttrIndex("Country")
	model, err := ml.TrainLogistic(table.SelectRows(first), label, ml.LogisticOptions{})
	if err != nil {
		b.Fatal(err)
	}
	env := &sqlexec.Env{Models: map[string]ml.Model{"Country": model}, Guard: guard}
	const q = "SELECT State, COUNT(*) AS n, AVG(CASE WHEN PREDICT(Country) = 'Country_v0' THEN 1 ELSE 0 END) AS m FROM t GROUP BY State"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlexec.Exec(q, table, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMECvsOrientations contrasts the two search spaces of Table 7 on
// one skeleton: enumerating the MEC vs counting all acyclic orientations.
func BenchmarkMECvsOrientations(b *testing.B) {
	rel, err := bn.RandomSEM(bn.SEMSpec{Attrs: 8, Seed: 5}).Sample(3000, 5)
	if err != nil {
		b.Fatal(err)
	}
	aux, err := auxdist.Sample(rel, auxdist.Options{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	learned, err := pc.Learn(aux, pc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := graph.EnumerateMEC(learned.CPDAG, 0); err != nil && err != graph.ErrEnumLimit {
				b.Fatal(err)
			}
		}
	})
	b.Run("orientations", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.CountAcyclicOrientations(learned.CPDAG, 1<<20)
		}
	})
}

// BenchmarkRepair contrasts per-statement rectify with holistic
// minimal-edit repair on corrupted rows.
func BenchmarkRepair(b *testing.B) {
	rel, err := bn.PostalChain(16).Sample(3000, 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Synthesize(rel, core.Options{Epsilon: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	dirty := rel.Row(0, nil)
	dirty[1] = rel.Intern(1, "gibbon")
	b.Run("rectify", func(b *testing.B) {
		row := make([]int32, len(dirty))
		for i := 0; i < b.N; i++ {
			copy(row, dirty)
			res.Program.Rectify(row)
		}
	})
	b.Run("holistic", func(b *testing.B) {
		r := repair.New(res.Program, repair.Options{})
		row := make([]int32, len(dirty))
		for i := 0; i < b.N; i++ {
			copy(row, dirty)
			r.Repair(row)
		}
	})
}

// BenchmarkSMTEncode sizes the monolithic encoding (§8.3) repeatedly.
func BenchmarkSMTEncode(b *testing.B) {
	rel, err := bn.RandomSEM(bn.SEMSpec{Attrs: 15, Seed: 6}).Sample(1000, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smt.Encode(rel, 3)
	}
}
