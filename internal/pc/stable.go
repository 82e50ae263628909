package pc

import (
	"context"
	"math/rand"
	"sync"

	"github.com/guardrail-db/guardrail/internal/graph"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
	"github.com/guardrail-db/guardrail/internal/par"
	"github.com/guardrail-db/guardrail/internal/stats"
)

// StableOptions configures the bootstrap-aggregated learner.
type StableOptions struct {
	// Options for each base PC run.
	Options
	// Rounds of bootstrap resampling (default 10).
	Rounds int
	// KeepFraction: an edge survives when present in at least this share
	// of bootstrap skeletons (default 0.6).
	KeepFraction float64
	// Seed drives the resampling.
	Seed int64
}

func (o *StableOptions) defaults() {
	if o.Rounds == 0 {
		o.Rounds = 10
	}
	if o.KeepFraction == 0 {
		o.KeepFraction = 0.6
	}
}

// resample is a bootstrap view of a stats.Data: rows drawn with
// replacement. Columns materialize lazily under a sync.Once each, so the
// parallel CI sweep inside Learn can share one resample across workers.
type resample struct {
	base stats.Data
	rows []int
	cols [][]int32
	once []sync.Once
}

func newResample(base stats.Data, rng *rand.Rand) *resample {
	n := base.N()
	rows := make([]int, n)
	for i := range rows {
		rows[i] = rng.Intn(n)
	}
	m := base.NumVars()
	return &resample{base: base, rows: rows, cols: make([][]int32, m), once: make([]sync.Once, m)}
}

func (r *resample) NumVars() int   { return r.base.NumVars() }
func (r *resample) N() int         { return len(r.rows) }
func (r *resample) Card(i int) int { return r.base.Card(i) }

func (r *resample) Codes(i int) []int32 {
	r.once[i].Do(func() {
		src := r.base.Codes(i)
		col := make([]int32, len(r.rows))
		for j, row := range r.rows {
			col[j] = src[row]
		}
		r.cols[i] = col
	})
	return r.cols[i]
}

// LearnStable runs PC on bootstrap resamples of d and keeps only the edges
// that recur in at least KeepFraction of the skeletons, then re-orients the
// aggregated skeleton using sepsets from a final full-data pass. Bootstrap
// aggregation trades a little recall for considerably fewer spurious edges
// on noisy data — a standard stabilization of constraint-based learners.
//
// The rounds are independent given their resamples, so they run on the
// worker pool; the resamples themselves are drawn serially up front to
// keep the RNG consumption order — and therefore the result — identical
// at every worker count.
func LearnStable(d stats.Data, opts StableOptions) (*Result, error) {
	opts.defaults()
	opts.Obs.Counter("pc.bootstrap_rounds").Add(int64(opts.Rounds))
	tsp := opts.Trace.Start("pc.stable").Int("rounds", int64(opts.Rounds))
	defer tsp.End()
	rng := rand.New(rand.NewSource(opts.Seed))
	n := d.NumVars()
	samples := make([]*resample, opts.Rounds)
	for round := range samples {
		samples[round] = newResample(d, rng)
	}
	// Each round is one worker-pool task; the per-level sweep inside these
	// Learn calls stays serial so the pool is not oversubscribed. Each
	// round's Learn inherits the worker's own trace lane from the task
	// context, keeping every lane single-writer even though the inner
	// learner also starts spans.
	roundOpts := opts.Options
	roundOpts.Workers = 1
	results, err := par.Map(trace.ContextWithScope(context.Background(), tsp.Scope()),
		opts.Workers, opts.Rounds,
		func(ctx context.Context, round int) (*Result, error) {
			sc := trace.FromContext(ctx)
			rsp := sc.Start("pc.round").Int("round", int64(round))
			ro := roundOpts
			ro.Trace = rsp.Scope()
			res, rerr := Learn(samples[round], ro)
			rsp.End()
			return res, rerr
		})
	if err != nil {
		return nil, err
	}
	votes := make([][]int, n)
	for i := range votes {
		votes[i] = make([]int, n)
	}
	for _, res := range results {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if res.Skeleton.Adjacent(i, j) {
					votes[i][j]++
				}
			}
		}
	}
	// Full-data pass supplies sepsets and the tie-breaking skeleton.
	fullOpts := opts.Options
	fullOpts.Trace = tsp.Scope()
	full, err := Learn(d, fullOpts)
	if err != nil {
		return nil, err
	}
	need := int(opts.KeepFraction*float64(opts.Rounds) + 0.5)
	skel := graph.NewPDAG(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if votes[i][j] >= need {
				skel.AddUndirected(i, j)
			}
		}
	}
	cp := graph.OrientVStructures(skel, full.SepSets)
	graph.MeekClose(cp)
	return &Result{CPDAG: cp, Skeleton: skel, SepSets: full.SepSets, Tests: full.Tests}, nil
}
