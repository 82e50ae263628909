package synth

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/guardrail-db/guardrail/internal/auxdist"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/analysis"
	"github.com/guardrail-db/guardrail/internal/graph"
	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
	"github.com/guardrail-db/guardrail/internal/par"
	"github.com/guardrail-db/guardrail/internal/pc"
	"github.com/guardrail-db/guardrail/internal/sketch"
	"github.com/guardrail-db/guardrail/internal/stats"
)

// Options configures the end-to-end synthesizer.
type Options struct {
	// Epsilon is the ε-validity threshold (recommended 0.01–0.05, §8.3).
	Epsilon float64
	// MinSupport is the branch support floor (see FillOptions).
	MinSupport int
	// Alpha is the significance level of the structure learner's CI tests
	// (default 0.01).
	Alpha float64
	// MaxCond caps PC conditioning-set size (default 3).
	MaxCond int
	// MaxDAGs caps the MEC enumeration of Alg. 2 (default 256).
	MaxDAGs int
	// UseAux enables the auxiliary-distribution sampler (§4.6); the
	// identity sampler is the Table 8 ablation (default true — set
	// IdentitySampler to disable).
	IdentitySampler bool
	// AuxShifts / AuxMaxSamples tune auxdist.Sample.
	AuxShifts     int
	AuxMaxSamples int
	// CheckGNT prunes sketches that fail global non-triviality before
	// filling (default true — set SkipGNT to disable).
	SkipGNT bool
	// NoDedup disables equivalence-driven candidate dedup at the coverage
	// argmax, and with it canonicalization (the ablation baseline). The
	// selected program is identical either way: dedup keeps the first
	// member of each semantic equivalence class in enumeration order —
	// exactly the candidate the full scan would pick, since class members
	// share coverage and statement count.
	NoDedup bool
	// Seed drives sampling.
	Seed int64
	// Workers bounds the worker pool each pipeline stage fans out on: the
	// PC conditional-independence sweeps, the per-DAG sketch filling, and
	// the auxiliary-distribution sampling. <= 0 uses every core
	// (runtime.GOMAXPROCS); 1 forces the fully serial pipeline. The
	// synthesized program is byte-identical at every worker count.
	Workers int
	// Obs receives pipeline counters (synth.*, pc.*, aux.*) and stage
	// histograms (synth.learn/enum/fill, and synth.verify/canon
	// once per distinct filled statement), also for a stage that ends on
	// an error; nil records nothing. Counter content is
	// schedule-independent: identical at every worker count on the same
	// seed.
	Obs *obs.Registry
	// Trace parents the pipeline's span tree (synth.run → stage spans →
	// per-DAG / per-edge / per-shift work, attributed to worker lanes); the
	// zero scope records nothing, though each stage still reads the clock
	// twice for Result's timing fields. Spans record wall-clock only and
	// never influence the synthesized program.
	Trace trace.Scope
	// CI overrides the structure learner's test provider. When set, PC
	// draws its G² tests from here — typically a merged windowed
	// contingency table (internal/stats/incr) — instead of re-scanning the
	// sampled columns. Sketch screening and filling still run over the
	// relation's rows. Implies the identity sampler's variable space: the
	// tester must index variables exactly as rel indexes attributes.
	CI stats.CITester
	// WarmStart re-learns from a previous PC result, re-deciding only the
	// edges Dirty marks (see pc.LearnWarm). Nil means a cold start.
	WarmStart *pc.Result
	// Dirty flags the variables whose statistics drifted since WarmStart
	// was learned; ignored when WarmStart is nil.
	Dirty []bool
}

func (o *Options) defaults() {
	if o.Epsilon == 0 {
		o.Epsilon = 0.02
	}
	if o.Alpha == 0 {
		o.Alpha = 0.01
	}
	if o.MaxCond == 0 {
		o.MaxCond = 3
	}
	if o.MaxDAGs == 0 {
		o.MaxDAGs = 256
	}
	o.Workers = par.Resolve(o.Workers)
}

// Result is the synthesis outcome plus the bookkeeping the evaluation
// tables report.
type Result struct {
	Program *dsl.Program
	CPDAG   *graph.PDAG
	// Coverage of the selected program on the training relation.
	Coverage float64
	// NumDAGs is the number of MEC members enumerated (Table 7).
	NumDAGs int
	// EnumTruncated is set when MaxDAGs stopped the enumeration early.
	EnumTruncated bool
	// Timing breakdown.
	LearnTime time.Duration // structure learning (incl. aux sampling)
	EnumTime  time.Duration // MEC enumeration
	FillTime  time.Duration // sketch filling + selection
	// CacheHits/CacheMisses report statement-cache effectiveness.
	CacheHits, CacheMisses int
	// PrunedPrograms counts candidate programs the semantic verifier
	// rejected before coverage scoring (contradictory, dead, or
	// domain-violating fills).
	PrunedPrograms int
	// DedupedPrograms counts candidates skipped because an earlier
	// candidate had the same canonical semantic form.
	DedupedPrograms int
	// SolverCalls counts the finite-domain solver queries canonicalization
	// actually ran: one canonical fragment per distinct filled statement,
	// plus a whole-program analysis.Canon for each candidate with an
	// out-of-domain literal (see SelectProgram). Zero under NoDedup.
	SolverCalls int64
	// CITests is the number of independence tests run by PC.
	CITests int
	// Learned is the full PC result, kept so a later re-synthesis can
	// warm-start from this run's skeleton and separating sets.
	Learned *pc.Result
}

// TotalTime is the summed pipeline time (Table 4).
func (r *Result) TotalTime() time.Duration { return r.LearnTime + r.EnumTime + r.FillTime }

// Synthesize runs the full Guardrail pipeline on rel: sample the auxiliary
// distribution, learn the CPDAG with PC, enumerate the MEC, fill each DAG's
// sketch (with the statement-level cache), and return the maximum-coverage
// ε-valid program (Alg. 2).
func Synthesize(rel *dataset.Relation, opts Options) (*Result, error) {
	opts.defaults()
	if rel.NumRows() < 2 {
		return nil, fmt.Errorf("synth: need at least 2 rows, have %d", rel.NumRows())
	}
	res := &Result{}
	opts.Obs.Gauge("synth.workers").Set(int64(opts.Workers))
	run := opts.Trace.Start("synth.run").Int("workers", int64(opts.Workers))
	defer run.End()
	stage := run.Scope()

	// Stage 1: structure learning.
	lsp := opts.Obs.Stage(stage, "synth.learn")
	var data stats.Data
	if opts.IdentitySampler {
		data = auxdist.Identity(rel)
	} else {
		aux, err := auxdist.Sample(rel, auxdist.Options{
			Shifts:     opts.AuxShifts,
			MaxSamples: opts.AuxMaxSamples,
			Seed:       opts.Seed,
			Workers:    opts.Workers,
			Obs:        opts.Obs,
			Trace:      lsp.Scope(),
		})
		if err != nil {
			lsp.End()
			return nil, fmt.Errorf("synth: auxiliary sampling: %w", err)
		}
		data = aux
	}
	ci := opts.CI
	if ci == nil {
		ci = stats.Tester(data)
	}
	pcOpts := pc.Options{Alpha: opts.Alpha, MaxCond: opts.MaxCond,
		Workers: opts.Workers, Obs: opts.Obs, Trace: lsp.Scope()}
	var learned *pc.Result
	var err error
	if opts.WarmStart != nil {
		learned, err = pc.LearnWarm(ci, opts.WarmStart, opts.Dirty, pcOpts)
	} else {
		learned, err = pc.LearnFrom(ci, pcOpts)
	}
	res.LearnTime = lsp.End()
	if err != nil {
		return nil, fmt.Errorf("synth: structure learning: %w", err)
	}
	res.CPDAG = learned.CPDAG
	res.CITests = learned.Tests
	res.Learned = learned

	// Stage 2: MEC enumeration (Alg. 2 outer loop).
	esp := opts.Obs.Stage(stage, "synth.enum")
	dags, err := graph.EnumerateMEC(learned.CPDAG, opts.MaxDAGs)
	if err == graph.ErrEnumLimit {
		res.EnumTruncated = true
	} else if err != nil {
		esp.End()
		return nil, fmt.Errorf("synth: MEC enumeration: %w", err)
	}
	res.EnumTime = esp.Int("dags", int64(len(dags))).End()
	res.NumDAGs = len(dags)
	opts.Obs.Counter("synth.dags").Add(int64(res.NumDAGs))

	// Stage 3: fill sketches and pick the maximum-coverage program.
	fsp := opts.Obs.Stage(stage, "synth.fill")
	selOpts := opts
	selOpts.Trace = fsp.Scope()
	sel, err := SelectProgram(rel, dags, data, selOpts)
	res.FillTime = fsp.End()
	if err != nil {
		return nil, fmt.Errorf("synth: program selection: %w", err)
	}
	res.Program = sel.Program
	res.Coverage = sel.Coverage
	res.PrunedPrograms = sel.PrunedPrograms
	res.DedupedPrograms = sel.DedupedPrograms
	res.SolverCalls = sel.SolverCalls
	res.CacheHits, res.CacheMisses = sel.CacheHits, sel.CacheMisses
	return res, nil
}

// Selection is the outcome of the Alg. 2 inner loop over one MEC.
type Selection struct {
	Program  *dsl.Program
	Coverage float64
	// PrunedPrograms counts candidates the semantic verifier rejected.
	PrunedPrograms int
	// DedupedPrograms counts candidates left out of the coverage argmax
	// because an earlier candidate had the same canonical semantic form.
	DedupedPrograms int
	// SolverCalls counts the finite-domain solver queries canonicalization
	// actually ran: one canonical fragment per distinct filled statement,
	// plus a whole-program analysis.Canon for each candidate with an
	// out-of-domain literal. Zero under NoDedup.
	SolverCalls int64
	// CacheHits/CacheMisses report statement-cache effectiveness.
	CacheHits, CacheMisses int
}

// candidate is one DAG's fill outcome, reduced at the barrier in DAG order.
type candidate struct {
	prog   *dsl.Program
	canon  string
	cov    float64
	calls  int64
	pruned bool
}

// SelectProgram fills each enumerated DAG's sketch and returns the
// maximum-coverage ε-valid program (Alg. 2 inner loop). The DAGs fan out
// across opts.Workers workers: each candidate is screened for local
// non-triviality and filled through the shared statement cache (identical
// GIVEN…ON… holes are concretized once across DAGs, §7).
//
// Selection's own work is per statement too. Inside the cache miss that
// fills a statement, the statement is scored once: its coverage (from
// the fill's group sizes), whether the semantic verifier raises an Error
// on it, and its canonical fragment. Each DAG's candidate is assembled
// from its statements' entries, with the same results as the
// whole-program functions:
//   - the verifier gate (analysis.Verify) prunes the candidate when any
//     statement raises an Error: checkCycles, the only cross-statement
//     check, emits Warnings only;
//   - the canonical form (analysis.Canon) is the concatenation of the
//     fragments, since widening is the identity on literals the fill took
//     from rel; a program with an out-of-domain literal falls back to
//     analysis.Canon;
//   - coverage (dsl.Coverage) is the mean of the statement coverages,
//     summed in statement order, bit for bit.
//
// At the barrier candidates whose canonical semantic form already appeared
// are dropped — distinct DAGs frequently fill to equivalent programs once
// unsupported statements fall away. Dropping a duplicate cannot change the
// selection: equal canonical forms imply identical coverage and statement
// count, and the kept representative is the earliest class member, which
// is the candidate the full scan would have selected. Both caches are
// singleflight and every per-DAG outcome depends only on that DAG and the
// shared read-only inputs, so counters and the selected program are
// identical at every worker count.
func SelectProgram(rel *dataset.Relation, dags []*graph.DAG, data stats.Data, opts Options) (*Selection, error) {
	opts.defaults()
	fill := FillOptions{Epsilon: opts.Epsilon, MinSupport: opts.MinSupport}
	cache := newStmtCache(rel, fill, !opts.NoDedup, opts.Obs)
	lnt := &sketch.LNTCache{}
	cands, err := par.Map(trace.ContextWithScope(context.Background(), opts.Trace),
		opts.Workers, len(dags),
		func(ctx context.Context, k int) (candidate, error) {
			dsp := trace.FromContext(ctx).Start("synth.dag").Int("dag", int64(k))
			dctx := trace.ContextWithScope(ctx, dsp.Scope())
			sk := sketch.FromDAG(dags[k])
			if !opts.SkipGNT {
				sk = pruneNonLNT(dctx, sk, data, opts.Alpha, lnt)
			}
			c := fillCandidate(dctx, sk, cache)
			if c.pruned {
				dsp.Bool("pruned", true).End()
				return candidate{pruned: true}, nil
			}
			dsp.Int("stmts", int64(len(c.prog.Stmts))).End()
			return c, nil
		})
	if err != nil {
		return nil, err
	}

	// Dedup at the barrier, in enumeration order: the first candidate of
	// each semantic-equivalence class survives. Keys are full canonical
	// strings, never hashes, so a collision cannot merge inequivalent
	// programs.
	sel := &Selection{Program: &dsl.Program{}, SolverCalls: cache.calls.Load()}
	seen := make(map[string]bool, len(cands))
	bestCov := -1.0
	for i, c := range cands {
		if c.pruned {
			sel.PrunedPrograms++
			continue
		}
		sel.SolverCalls += c.calls
		if !opts.NoDedup {
			if seen[c.canon] {
				sel.DedupedPrograms++
				opts.Trace.EventInt("synth.dedup", "dag", int64(i))
				continue
			}
			seen[c.canon] = true
		}
		if c.cov > bestCov || (c.cov == bestCov && len(c.prog.Stmts) > len(sel.Program.Stmts)) {
			sel.Program, bestCov = c.prog, c.cov
		}
	}
	if bestCov < 0 {
		bestCov = 0
	}
	sel.Coverage = bestCov
	sel.CacheHits, sel.CacheMisses = cache.Stats()
	opts.Obs.Counter("synth.programs_pruned").Add(int64(sel.PrunedPrograms))
	opts.Obs.Counter("synth.programs_deduped").Add(int64(sel.DedupedPrograms))
	opts.Obs.Counter("analysis.solver_calls").Add(sel.SolverCalls)
	opts.Obs.Counter("synth.stmt_cache_hits").Add(int64(sel.CacheHits))
	opts.Obs.Counter("synth.stmt_cache_misses").Add(int64(sel.CacheMisses))
	lntHits, lntMisses := lnt.Stats()
	opts.Obs.Counter("synth.lnt_cache_hits").Add(int64(lntHits))
	opts.Obs.Counter("synth.lnt_cache_misses").Add(int64(lntMisses))
	return sel, nil
}

// fillCandidate fills sk through cache and assembles the candidate from
// the statements' cached verdicts (see SelectProgram). A pruned
// candidate keeps its program but has no canonical form or coverage.
func fillCandidate(ctx context.Context, sk sketch.Prog, cache *stmtCache) candidate {
	c := candidate{prog: &dsl.Program{}}
	var canon strings.Builder
	var covSum float64
	inDom := true
	for _, st := range sk.Stmts {
		e := cache.get(ctx, st)
		if !e.ok {
			continue // ⊥: the statement drops out of the program
		}
		c.prog.Stmts = append(c.prog.Stmts, e.stmt)
		covSum += e.cov
		canon.WriteString(e.canon)
		c.pruned = c.pruned || e.bad
		inDom = inDom && e.inDom
	}
	// Static verification gate (the checks behind `guardrail lint`): a
	// candidate whose fill is degenerate (contradictory branches, dead
	// statements, out-of-domain literals) would silently weaken the runtime
	// guardrail, so it is pruned before it can win coverage scoring.
	if c.pruned {
		return c
	}
	if n := len(c.prog.Stmts); n > 0 {
		c.cov = covSum / float64(n)
	}
	if cache.canon {
		if inDom {
			c.canon = canon.String()
		} else {
			c.canon, c.calls = analysis.Canon(c.prog, cache.dom)
		}
	}
	return c
}

// pruneNonLNT drops statement sketches that fail local non-triviality —
// conservative screening before the expensive fill. (Sketches extracted
// from the learned CPDAG are GNT by Theorem 4.1 when the CPDAG is faithful;
// the LNT re-check guards against finite-sample artifacts.) Outcomes are
// memoized in lnt: the same (GIVEN set, ON) pair recurs across the DAGs of
// a MEC and its screen depends only on that pair.
func pruneNonLNT(ctx context.Context, p sketch.Prog, d stats.Data, alpha float64, lnt *sketch.LNTCache) sketch.Prog {
	var out sketch.Prog
	for _, s := range p.Stmts {
		ok, err := lnt.LNTCtx(ctx, s, d, alpha)
		if err == nil && ok {
			out.Stmts = append(out.Stmts, s)
		}
	}
	return out
}
