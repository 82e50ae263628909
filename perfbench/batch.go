package main

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/compile"
	"github.com/guardrail-db/guardrail/internal/errgen"
	"github.com/guardrail-db/guardrail/internal/ml"
	"github.com/guardrail-db/guardrail/internal/sqlexec"
)

const (
	batchRows   = 200_000
	trainRows   = 6_000
	postalCodes = 256
	// labelAttr is the PREDICT target of the guarded query.
	labelAttr = "Country"
	// minRounds keeps a short run from reporting a one-sample median.
	minRounds = 3
)

// batchQuery groups by an attribute the guard rectifies and aggregates a
// prediction, so both the guard and the model shape the answer.
const batchQuery = "SELECT State, COUNT(*) AS n, AVG(CASE WHEN PREDICT(Country) = 'Country_v0' THEN 1 ELSE 0 END) AS m FROM t GROUP BY State"

// batchInputs are generated once from the seed.
type batchInputs struct {
	trainCSV, dirtyCSV []byte
	gold               []bool // errgen's dirty-row mask
}

func makeBatchInputs(seed int64) (*batchInputs, error) {
	net := bn.PostalChain(postalCodes)
	train, err := net.Sample(trainRows, seed+7919)
	if err != nil {
		return nil, err
	}
	dirty, err := net.Sample(batchRows, seed)
	if err != nil {
		return nil, err
	}
	mask, err := errgen.Inject(dirty, errgen.Options{Rate: 0.01, RandomStringProb: 0.3, Seed: seed})
	if err != nil {
		return nil, err
	}
	in := &batchInputs{gold: mask.RowDirty}
	var b bytes.Buffer
	if err := train.ToCSV(&b); err != nil {
		return nil, err
	}
	in.trainCSV = append([]byte(nil), b.Bytes()...)
	b.Reset()
	if err := dirty.ToCSV(&b); err != nil {
		return nil, err
	}
	in.dirtyCSV = b.Bytes()
	return in, nil
}

// batchSetup is the program state the timed phase runs on.
type batchSetup struct {
	text        string // the synthesized program, as `guardrail synth` writes it
	schema      *dataset.Relation
	streamGuard *core.Guard
	table       *dataset.Relation // the SQL table
	env         *sqlexec.Env
	synthTime   time.Duration
	compiles    []time.Duration
}

// setupBatch synthesizes the program from the training sample, compiles
// the streaming guard, loads the SQL table, and trains the model. The
// program text is parsed against each relation it guards: codes are
// relative to the relation a program was parsed with.
func setupBatch(in *batchInputs, seed int64) (*batchSetup, error) {
	st := &batchSetup{}
	train, err := dataset.FromCSV(bytes.NewReader(in.trainCSV), "train")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := core.Synthesize(train, synthOptions(seed, workers))
	if err != nil {
		return nil, err
	}
	st.synthTime = time.Since(t0)
	st.text = dsl.Format(res.Program, train)

	if st.schema, err = dataset.FromCSV(bytes.NewReader(in.trainCSV), "schema"); err != nil {
		return nil, err
	}
	if st.streamGuard, err = st.compiledGuard(st.schema); err != nil {
		return nil, err
	}
	if st.table, err = dataset.FromCSV(bytes.NewReader(in.dirtyCSV), "t"); err != nil {
		return nil, err
	}
	sqlGuard, err := st.compiledGuard(st.table)
	if err != nil {
		return nil, err
	}
	label := st.table.AttrIndex(labelAttr)
	first := make([]int, trainRows)
	for i := range first {
		first[i] = i
	}
	model, err := ml.TrainLogistic(st.table.SelectRows(first), label, ml.LogisticOptions{})
	if err != nil {
		return nil, err
	}
	st.env = &sqlexec.Env{Models: map[string]ml.Model{labelAttr: model}, Guard: sqlGuard}
	return st, nil
}

// compiledGuard parses the program against rel and compiles a rectify
// guard for it; a guard left on the interpreter is an error here.
func (st *batchSetup) compiledGuard(rel *dataset.Relation) (*core.Guard, error) {
	prog, err := dsl.Parse(st.text, rel)
	if err != nil {
		return nil, err
	}
	g := core.NewGuard(prog, core.Rectify)
	t0 := time.Now()
	_, err = g.Compile(compile.Options{})
	st.compiles = append(st.compiles, time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("compiling the guard: %w", err)
	}
	return g, nil
}

// batchRound holds one round's timings of the three paths.
type batchRound struct {
	stream, rectify, sql time.Duration
}

// runBatchRectify times three batch paths over a 200k-row dirty CSV:
// Guard.StreamCSV, the `guardrail rectify` path (FromCSV, Parse, Apply,
// ToCSV), and a guarded sqlexec PREDICT query.
func runBatchRectify(cfg config, rep *report) error {
	in, err := makeBatchInputs(cfg.seed)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	var st *batchSetup
	var setups, synths []float64
	var sp speed
	for k := 0; k < setupRuns; k++ {
		t0 := time.Now()
		if st, err = setupBatch(in, cfg.seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		synths = append(synths, st.synthTime.Seconds())
		sp.probe()
	}
	rep.e2e["setup_s"] = median(setups)
	rep.layer["synth.setup_s"] = median(synths)
	compiles := append([]time.Duration(nil), st.compiles...)

	// The query's expected answer: the same query, unguarded, over a copy
	// of the table rectified by Apply.
	want, err := referenceQuery(st)
	if err != nil {
		return fmt.Errorf("reference query: %w", err)
	}

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var plain, traced []batchRound
	var allocs []float64
	self := map[string][]float64{} // per-layer self times of traced paths
	var flagged, changed int
	var detect confusion
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < cfg.seconds; round++ {
		tr := rec
		if round%2 == 0 {
			tr = nil // a traced run alternates untraced and traced rounds
		}
		// Each path's spans form their own group, so the self-time sum is
		// checked per path.
		gStream, gRect, gSQL := int64(3*round), int64(3*round+1), int64(3*round+2)
		var r batchRound

		// Path 1: StreamCSV on the compiled engine.
		var streamOut bytes.Buffer
		streamOut.Grow(len(in.dirtyCSV) + len(in.dirtyCSV)/8)
		var ms0 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		root := tr.start("batch.stream", 0, gStream)
		t0 := time.Now()
		s := tr.start("core.stream_csv", root, gStream)
		ss, err := st.streamGuard.StreamCSV(bytes.NewReader(in.dirtyCSV), &streamOut, st.schema)
		tr.end(s)
		r.stream = time.Since(t0)
		tr.end(root)
		if tr != nil {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/batchRows)
		}
		rep.op(err)
		if err != nil {
			continue
		}

		// Path 2: the `guardrail rectify` path.
		root = tr.start("batch.rectify", 0, gRect)
		t0 = time.Now()
		rectOut, rr, cells, err := rectifyPath(st.text, in.dirtyCSV, tr, root, gRect, &compiles)
		r.rectify = time.Since(t0)
		tr.end(root)
		rep.op(err)
		if err != nil {
			continue
		}

		// Path 3: the guarded PREDICT query.
		root = tr.start("batch.sql", 0, gSQL)
		t0 = time.Now()
		s = tr.start("sqlexec.exec", root, gSQL)
		execStart := tr.now()
		got, err := sqlexec.Exec(batchQuery, st.table, st.env)
		tr.end(s)
		r.sql = time.Since(t0)
		if err == nil && tr != nil {
			// Result.Stats reports the guard and inference stages; they are
			// recorded as children of the exec span, laid end to end.
			gEnd := execStart + int64(got.Stats.GuardTime)
			tr.add("sqlexec.guard", s, gSQL, execStart, gEnd)
			tr.add("sqlexec.inference", s, gSQL, gEnd, gEnd+int64(got.Stats.InferenceTime))
		}
		tr.end(root)
		rep.op(err)
		sp.probe()
		if err != nil {
			continue
		}

		rep.check(bytes.Equal(streamOut.Bytes(), rectOut), "round %d: StreamCSV output differs from FromCSV→Apply→ToCSV", round+1)
		rep.check(ss.Flagged == rr.RowsFlagged, "round %d: StreamCSV flagged %d rows, Apply flagged %d", round+1, ss.Flagged, rr.RowsFlagged)
		rep.check(ss.Changed == cells, "round %d: StreamCSV changed %d cells, Apply changed %d", round+1, ss.Changed, cells)
		rep.check(ss.Rows == batchRows && rr.RowsChecked == batchRows, "round %d: rows checked %d / %d, want %d", round+1, ss.Rows, rr.RowsChecked, batchRows)
		rep.check(reflect.DeepEqual(got.Rows, want.Rows), "round %d: guarded query result differs from the query over the Apply-rectified table", round+1)
		flagged, changed = rr.RowsFlagged, cells
		detect = confusionOf(rr.Flagged, in.gold)
		if tr == nil {
			plain = append(plain, r)
			continue
		}
		traced = append(traced, r)
		spans := tr.snapshot()
		for _, p := range []struct {
			group int64
			wall  time.Duration
		}{{gStream, r.stream}, {gRect, r.rectify}, {gSQL, r.sql}} {
			ls := layerSelf(spans, p.group)
			var attributed time.Duration
			for name, d := range ls {
				self[name] = append(self[name], d.Seconds())
				attributed += d
			}
			rep.check(wallAgrees(attributed, p.wall), "round %d: layer self times sum to %v, the path's wall is %v", round+1, attributed, p.wall)
		}
	}

	streamT := roundMedian(plain, func(r batchRound) time.Duration { return r.stream })
	rectT := roundMedian(plain, func(r batchRound) time.Duration { return r.rectify })
	sqlT := roundMedian(plain, func(r batchRound) time.Duration { return r.sql })
	rep.e2e["latency_ms"] = sqlT * 1000
	rep.e2e["rows_per_s"] = 3 * batchRows / (streamT + rectT + sqlT)
	rep.e2e["quality"] = detect.f1()
	sp.normalize(rep)

	rep.layer["stream_rows_per_s"] = batchRows / streamT
	rep.layer["rectify_rows_per_s"] = batchRows / rectT
	rep.layer["sql_query_ms"] = sqlT * 1000
	rep.layer["detect_f1"] = detect.f1()
	rep.layer["core.rows_flagged"] = float64(flagged)
	rep.layer["core.cells_changed"] = float64(changed)
	var compileS []float64
	for _, d := range compiles {
		compileS = append(compileS, d.Seconds())
	}
	rep.layer["compile.compile_s"] = median(compileS)
	if rec != nil {
		for name, metric := range map[string]string{
			"dataset.parse": "dataset.parse_s", "dsl.parse": "dsl.parse_s",
			"core.apply": "core.apply_s", "dataset.write": "dataset.write_s",
			"batch.rectify": "core.rectify_rest_s", "core.stream_csv": "core.stream_s",
			"batch.stream":  "core.stream_path_rest_s",
			"sqlexec.guard": "sqlexec.guard_s", "sqlexec.inference": "sqlexec.inference_s",
		} {
			rep.layer[metric] = median(self[name])
		}
		rep.layer["sqlexec.rest_s"] = median(self["sqlexec.exec"]) + median(self["batch.sql"])
		rep.layer["core.stream_rest_s"] = rep.layer["core.stream_s"] -
			(rep.layer["dataset.parse_s"] + rep.layer["core.apply_s"] + rep.layer["dataset.write_s"])
		rep.layer["core.stream_allocs_per_row"] = median(allocs)
		tracedRound := roundMedian(traced, func(r batchRound) time.Duration { return r.stream + r.rectify + r.sql })
		rep.layer["trace.overhead_pct"] = 100 * (tracedRound/(streamT+rectT+sqlT) - 1)
		dumpSpans(rec, "batch-rectify", cfg.seed)
	}
	fmt.Fprintf(os.Stderr, "batch-rectify: %d untraced + %d traced rounds; stream %.3fs rectify %.3fs sql %.3fs; flagged %d of %d (gold %d), f1 %.4f\n",
		len(plain), len(traced), streamT, rectT, sqlT, flagged, batchRows, detect.TP+detect.FN, detect.f1())
	return nil
}

// rectifyPath is `guardrail rectify -out`: load the CSV, parse the program
// against it, compile, Apply, and write the rectified CSV.
func rectifyPath(text string, data []byte, tr *recorder, parent int, g int64, compiles *[]time.Duration) ([]byte, *core.Report, int, error) {
	s := tr.start("dataset.parse", parent, g)
	rel, err := dataset.FromCSV(bytes.NewReader(data), "dirty")
	tr.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	s = tr.start("dsl.parse", parent, g)
	prog, err := dsl.Parse(text, rel)
	tr.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	guard := core.NewGuard(prog, core.Rectify)
	s = tr.start("compile.compile", parent, g)
	t0 := time.Now()
	_, err = guard.Compile(compile.Options{})
	*compiles = append(*compiles, time.Since(t0))
	tr.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	s = tr.start("core.apply", parent, g)
	rep, err := guard.Apply(rel)
	tr.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	var out bytes.Buffer
	out.Grow(len(data) + len(data)/8)
	s = tr.start("dataset.write", parent, g)
	err = rel.ToCSV(&out)
	tr.end(s)
	return out.Bytes(), rep, rep.CellsChanged, err
}

// referenceQuery answers batchQuery without a guard over a copy of the
// table that Apply rectified.
func referenceQuery(st *batchSetup) (*sqlexec.Result, error) {
	ref := st.table.Clone()
	prog, err := dsl.Parse(st.text, ref)
	if err != nil {
		return nil, err
	}
	if _, err := core.NewGuard(prog, core.Rectify).Apply(ref); err != nil {
		return nil, err
	}
	return sqlexec.Exec(batchQuery, ref, &sqlexec.Env{Models: st.env.Models})
}

func roundMedian(rs []batchRound, f func(batchRound) time.Duration) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r).Seconds()
	}
	return median(xs)
}
