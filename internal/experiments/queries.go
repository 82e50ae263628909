package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/errgen"
	"github.com/guardrail-db/guardrail/internal/ml"
	"github.com/guardrail-db/guardrail/internal/sqlexec"
	"github.com/guardrail-db/guardrail/internal/stats"
)

// governedAttrs lists the dependent (ON) attributes of a program's
// well-covered statements — the attributes whose errors the constraints
// can detect and repair.
func governedAttrs(prog *dsl.Program, rel *dataset.Relation) []int {
	var out []int
	for _, s := range prog.Stmts {
		if dsl.StatementCoverage(s, rel) >= 0.7 {
			out = append(out, s.On)
		}
	}
	if len(out) == 0 {
		for _, s := range prog.Stmts {
			out = append(out, s.On)
		}
	}
	return out
}

// datasetQueries builds the four ML-integrated SQL queries per dataset
// (48 across the registry), mirroring the varied complexity of §8.2:
// a global aggregate, a filtered count, a grouped rate, and a
// predicate+prediction conjunction.
func datasetQueries(p *prepared) []string {
	label := p.train.Attr(p.label)
	labelV0 := fmt.Sprintf("%s_v0", label)
	grp := pickAttr(p.train, p.label, 2, 8)
	constAttr := grp
	constVal := modeValue(p.train, constAttr)
	return []string{
		fmt.Sprintf("SELECT AVG(CASE WHEN PREDICT(%s) = '%s' THEN 1 ELSE 0 END) AS m FROM t", label, labelV0),
		fmt.Sprintf("SELECT %s, COUNT(*) AS m FROM t WHERE PREDICT(%s) = '%s' GROUP BY %s", grpName(p, grp), label, labelV0, grpName(p, grp)),
		fmt.Sprintf("SELECT %s, AVG(CASE WHEN PREDICT(%s) = '%s' THEN 1 ELSE 0 END) AS m FROM t GROUP BY %s", grpName(p, grp), label, labelV0, grpName(p, grp)),
		fmt.Sprintf("SELECT COUNT(*) AS m FROM t WHERE %s = '%s' AND PREDICT(%s) = '%s'", grpName(p, constAttr), constVal, label, labelV0),
	}
}

func grpName(p *prepared, attr int) string { return p.train.Attr(attr) }

// pickAttr returns the first non-label attribute with cardinality in
// [lo, hi], falling back to the first non-label attribute.
func pickAttr(rel *dataset.Relation, label, lo, hi int) int {
	fallback := -1
	for a := 0; a < rel.NumAttrs(); a++ {
		if a == label {
			continue
		}
		if fallback < 0 {
			fallback = a
		}
		if c := rel.Cardinality(a); c >= lo && c <= hi {
			return a
		}
	}
	return fallback
}

// modeValue returns the most frequent value string of attr.
func modeValue(rel *dataset.Relation, attr int) string {
	counts := map[int32]int{}
	best, bestC := int32(0), -1
	for _, v := range rel.Column(attr) {
		counts[v]++
		if c := counts[v]; c > bestC || (c == bestC && v < best) {
			best, bestC = v, c
		}
	}
	return rel.Dict(attr).Value(best)
}

// resultVectors aligns two query results into comparable numeric vectors:
// rows are keyed by their non-numeric cells, and numeric cells of rows
// missing on either side count as zeros.
func resultVectors(a, b *sqlexec.Result) (va, vb []float64) {
	keyed := func(r *sqlexec.Result) map[string][]float64 {
		out := map[string][]float64{}
		for _, row := range r.Rows {
			key := ""
			var nums []float64
			for _, v := range row {
				if v.IsNum {
					nums = append(nums, v.Num)
				} else {
					key += v.String() + "\x00"
				}
			}
			out[key] = nums
		}
		return out
	}
	ka, kb := keyed(a), keyed(b)
	keys := map[string]int{}
	for k, v := range ka {
		if n := len(v); n > keys[k] {
			keys[k] = n
		}
	}
	for k, v := range kb {
		if n := len(v); n > keys[k] {
			keys[k] = n
		}
	}
	// Emit groups in sorted key order: map iteration order is randomized,
	// and the vectors must be stable so downstream metrics are reproducible.
	ordered := make([]string, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	for _, k := range ordered {
		width := keys[k]
		va = append(va, padded(ka[k], width)...)
		vb = append(vb, padded(kb[k], width)...)
	}
	return va, vb
}

func padded(v []float64, n int) []float64 {
	out := make([]float64, n)
	copy(out, v)
	return out
}

// relativeError is the paper's §8.2 metric: L1 distance between the query
// outcome on reference data and on candidate data, over the L1 norm of the
// reference outcome.
func relativeError(ref, cand *sqlexec.Result) float64 {
	va, vb := resultVectors(ref, cand)
	d, err := stats.L1Distance(va, vb)
	if err != nil {
		return 0
	}
	norm := stats.L1Norm(va)
	if norm == 0 {
		if d == 0 {
			return 0
		}
		return 1
	}
	return d / norm
}

// Table6Row reports per-dataset query overheads (Table 6): the median,
// over table6Repeats runs, of each time summed over the dataset's four
// queries.
type Table6Row struct {
	ID            int
	GuardTime     time.Duration
	InferenceTime time.Duration
}

// Table6Result aggregates the overhead table.
type Table6Result struct{ Rows []Table6Row }

// table6Repeats is how many times Table6 runs each dataset's queries. A
// single run of a scale-0.1 dataset takes well under a millisecond, so
// one sample reads mostly scheduler noise.
const table6Repeats = 5

// Table6 reproduces Table 6: guardrail check time vs model inference time,
// summed over the dataset's four queries executed with the rectify guard,
// each the median over table6Repeats runs of the queries.
func Table6(cfg Config) (*Table6Result, error) {
	cfg.defaults()
	out := &Table6Result{}
	for _, spec := range cfg.specs() {
		p, err := prepare(spec, cfg)
		if err != nil {
			return nil, err
		}
		model, err := trainModel(p)
		if err != nil {
			return nil, err
		}
		res, err := core.Synthesize(p.train, synthOptions(cfg, cfg.Seed+int64(spec.ID)))
		if err != nil {
			return nil, err
		}
		env := &sqlexec.Env{
			Models: map[string]ml.Model{p.train.Attr(p.label): model},
			Guard:  cfg.newGuard(res.Program, core.Rectify),
		}
		var guard, inference [table6Repeats]time.Duration
		for k := range guard {
			for _, q := range datasetQueries(p) {
				qr, err := sqlexec.Exec(q, p.dirty, env)
				if err != nil {
					return nil, fmt.Errorf("experiments: dataset %d query %q: %w", spec.ID, q, err)
				}
				guard[k] += qr.Stats.GuardTime
				inference[k] += qr.Stats.InferenceTime
			}
		}
		out.Rows = append(out.Rows, Table6Row{
			ID:            spec.ID,
			GuardTime:     medianDuration(guard[:]),
			InferenceTime: medianDuration(inference[:]),
		})
	}
	return out, nil
}

// medianDuration returns the median of ds (the upper one for an even
// count), sorting ds in place.
func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// Render formats the result like the paper's Table 6, in milliseconds.
func (r *Table6Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{fmt.Sprintf("#%d", row.ID),
			fmt.Sprintf("%.3fms", float64(row.GuardTime.Nanoseconds())/1e6),
			fmt.Sprintf("%.3fms", float64(row.InferenceTime.Nanoseconds())/1e6)})
	}
	return renderTable([]string{"Dataset", "Guardrail Time", "Inference Time"}, rows)
}

// Fig6Point is one query's outcome in Fig. 6: normalized relative error on
// dirty data (red dot) and after rectification (blue dot).
type Fig6Point struct {
	DatasetID int
	Query     int
	ErrDirty  float64
	ErrRect   float64
}

// Fig6Result aggregates the 48-query rectification study.
type Fig6Result struct {
	Points        []Fig6Point
	MeanReduction float64
	StdReduction  float64
}

// Fig6 reproduces Fig. 6: for each of the 4 queries on each dataset,
// the min-max-normalized relative error of the query over dirty data vs
// over data rectified by Guardrail, plus the paper's headline mean
// reduction (0.87 ± 0.25 there). Following §8.2, errors are injected into
// the attributes the synthesized constraints govern ("we focus on errors
// that are caused by the integrity constraints to isolate the impact of
// undetectable errors").
func Fig6(cfg Config) (*Fig6Result, error) {
	cfg.defaults()
	out := &Fig6Result{}
	var reductions []float64
	for _, spec := range cfg.specs() {
		p, err := prepare(spec, cfg)
		if err != nil {
			return nil, err
		}
		model, err := trainModel(p)
		if err != nil {
			return nil, err
		}
		res, err := core.Synthesize(p.train, synthOptions(cfg, cfg.Seed+int64(spec.ID)))
		if err != nil {
			return nil, err
		}
		if governed := governedAttrs(res.Program, p.train); len(governed) > 0 {
			dirty := p.test.Clone()
			if _, err := errgen.Inject(dirty, errgen.Options{
				Rate: 0.05, MinErrors: 30, Columns: governed,
				Seed: cfg.Seed + 99 + int64(spec.ID),
			}); err != nil {
				return nil, err
			}
			p.dirty = dirty
		}
		label := p.train.Attr(p.label)
		plain := &sqlexec.Env{Models: map[string]ml.Model{label: model}}
		guarded := &sqlexec.Env{Models: plain.Models, Guard: cfg.newGuard(res.Program, core.Rectify)}
		for qi, q := range datasetQueries(p) {
			truth, err := sqlexec.Exec(q, p.pristine, plain)
			if err != nil {
				return nil, fmt.Errorf("experiments: dataset %d query %d: %w", spec.ID, qi, err)
			}
			dirty, err := sqlexec.Exec(q, p.dirty, plain)
			if err != nil {
				return nil, err
			}
			rect, err := sqlexec.Exec(q, p.dirty, guarded)
			if err != nil {
				return nil, err
			}
			pt := Fig6Point{
				DatasetID: spec.ID,
				Query:     qi + 1,
				ErrDirty:  relativeError(truth, dirty),
				ErrRect:   relativeError(truth, rect),
			}
			out.Points = append(out.Points, pt)
			// Aggregate the headline reduction over queries the errors
			// materially affect; sub-1% relative errors are dominated by
			// ratio noise and would swamp the mean either way.
			if pt.ErrDirty >= 0.01 {
				reductions = append(reductions, (pt.ErrDirty-pt.ErrRect)/pt.ErrDirty)
			}
		}
	}
	// Min-max normalize the two series jointly so all queries share scale.
	all := make([]float64, 0, 2*len(out.Points))
	for _, pt := range out.Points {
		all = append(all, pt.ErrDirty, pt.ErrRect)
	}
	stats.MinMaxNormalize(all)
	for i := range out.Points {
		out.Points[i].ErrDirty = all[2*i]
		out.Points[i].ErrRect = all[2*i+1]
	}
	out.MeanReduction, out.StdReduction = stats.MeanStd(reductions)
	return out, nil
}

// Render formats the result like the paper's Fig. 6 (as a table of dots).
func (r *Fig6Result) Render() string {
	var rows [][]string
	for _, pt := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("#%d", pt.DatasetID), fmt.Sprintf("Q%d", pt.Query),
			f3(pt.ErrDirty), f3(pt.ErrRect)})
	}
	s := renderTable([]string{"Dataset", "Query", "Err(dirty)", "Err(rectified)"}, rows)
	return s + fmt.Sprintf("Mean error reduction = %.2f +/- %.2f\n", r.MeanReduction, r.StdReduction)
}
