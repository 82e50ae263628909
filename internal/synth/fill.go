// Package synth implements Guardrail's two-stage synthesis: filling program
// sketches with ε-valid branches (Alg. 1) and selecting the
// maximum-coverage concrete program across the DAGs of a Markov
// equivalence class (Alg. 2), with the statement-level cache described in
// §7. The end-to-end Synthesizer (synthesizer.go) composes these with the
// PC structure learner and the auxiliary-distribution sampler.
package synth

import (
	"context"
	"sort"
	"sync/atomic"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/analysis"
	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
	"github.com/guardrail-db/guardrail/internal/par"
	"github.com/guardrail-db/guardrail/internal/sketch"
	"github.com/guardrail-db/guardrail/internal/smt/sat"
)

// FillOptions tunes Alg. 1.
type FillOptions struct {
	// Epsilon is the per-branch loss tolerance (Eqn. 3); default 0.02.
	Epsilon float64
	// MinSupport drops branches whose condition matches fewer rows; a
	// branch learned from a single example is rarely a constraint
	// (default 2).
	MinSupport int
}

func (o *FillOptions) defaults() {
	if o.Epsilon == 0 {
		o.Epsilon = 0.02
	}
	if o.MinSupport == 0 {
		o.MinSupport = 2
	}
}

// FillStatement concretizes one statement sketch over rel (Alg. 1,
// FillStmtSketch): the warranted conditions are the determinant-value
// combinations observed in the data; each condition's best-fit literal is
// the mode of the dependent attribute within the matching rows; a branch is
// kept iff its 0/1 loss is within |D^b|·ε. It returns false when no branch
// survives (the ⊥ case).
func FillStatement(rel *dataset.Relation, sk sketch.Stmt, opts FillOptions) (dsl.Statement, bool) {
	stmt, _, ok := fillStatement(rel, sk, opts)
	return stmt, ok
}

// fillStatement is FillStatement plus the statement's support: the summed
// sizes of the groups behind the kept branches. A kept branch's condition
// is its group's determinant tuple, which never holds Missing, so it
// matches exactly its group's rows; the support therefore equals
// Σ dsl.BranchSupport over the statement's branches.
func fillStatement(rel *dataset.Relation, sk sketch.Stmt, opts FillOptions) (dsl.Statement, int, bool) {
	opts.defaults()
	n := rel.NumRows()
	if n == 0 || len(sk.Given) == 0 {
		return dsl.Statement{}, 0, false
	}
	givenCols := make([][]int32, len(sk.Given))
	for i, g := range sk.Given {
		givenCols[i] = rel.Column(g)
	}
	onCol := rel.Column(sk.On)

	// Group rows by their determinant tuple. gid[r] is row r's group, or
	// -1 when a determinant is missing: a condition cannot test it. Ids
	// start as the first determinant's codes and are re-densified one
	// determinant at a time through keys gid<<32|code, which cannot
	// overflow however many determinants there are.
	gid := make([]int32, n)
	ngroups := 0
	for r, v := range givenCols[0] {
		gid[r] = v // Missing is -1
		ngroups = max(ngroups, int(v)+1)
	}
	for _, col := range givenCols[1:] {
		ids := make(map[uint64]int32, ngroups)
		for r, g := range gid {
			if g < 0 {
				continue
			}
			v := col[r]
			if v == dataset.Missing {
				gid[r] = -1
				continue
			}
			k := uint64(g)<<32 | uint64(v)
			id, ok := ids[k]
			if !ok {
				id = int32(len(ids))
				ids[k] = id
			}
			gid[r] = id
		}
		ngroups = len(ids)
	}

	// Lay each group's rows out together: group g's rows are
	// rows[start[g]:start[g+1]], in row order.
	start := make([]int32, ngroups+1)
	for _, g := range gid {
		if g >= 0 {
			start[g+1]++
		}
	}
	for g := 0; g < ngroups; g++ {
		start[g+1] += start[g]
	}
	rows := make([]int32, start[ngroups])
	next := append([]int32(nil), start[:ngroups]...)
	for r, g := range gid {
		if g >= 0 {
			rows[next[g]] = int32(r)
			next[g]++
		}
	}

	// Per group, the branch literal is the mode of the dependent values,
	// the least value among equally frequent ones. counts[v+1] counts
	// value v (Missing at 0); seen lists the values a group touched, so
	// resetting the counts costs the group's size, not the domain's.
	counts := make([]int, rel.Cardinality(sk.On)+1)
	var seen []int32
	var branches []dsl.Branch
	support := 0
	for g := 0; g < ngroups; g++ {
		grp := rows[start[g]:start[g+1]]
		size := len(grp)
		if size == 0 || size < opts.MinSupport {
			continue
		}
		seen = seen[:0]
		for _, r := range grp {
			v := onCol[r]
			if int(v)+1 >= len(counts) {
				counts = append(counts, make([]int, int(v)+2-len(counts))...)
			}
			if counts[v+1] == 0 {
				seen = append(seen, v)
			}
			counts[v+1]++
		}
		mode, modeCount := int32(dataset.Missing), -1
		for _, v := range seen {
			if c := counts[v+1]; c > modeCount || (c == modeCount && v < mode) {
				mode, modeCount = v, c
			}
			counts[v+1] = 0
		}
		if mode == dataset.Missing {
			continue // refusing to assert "must be missing"
		}
		loss := size - modeCount
		if float64(loss) > float64(size)*opts.Epsilon {
			continue
		}
		cond := make(dsl.Condition, len(sk.Given))
		for i, a := range sk.Given {
			cond[i] = dsl.Pred{Attr: a, Value: givenCols[i][grp[0]]}
		}
		branches = append(branches, dsl.Branch{Cond: cond, Value: mode})
		support += size
	}
	if len(branches) == 0 {
		return dsl.Statement{}, 0, false
	}
	// Deterministic output order: sort by condition values.
	sort.Slice(branches, func(i, j int) bool {
		a, b := branches[i].Cond, branches[j].Cond
		for k := range a {
			if a[k].Value != b[k].Value {
				return a[k].Value < b[k].Value
			}
		}
		return branches[i].Value < branches[j].Value
	})
	return dsl.Statement{
		Given:    append([]int(nil), sk.Given...),
		On:       sk.On,
		Branches: branches,
	}, support, true
}

// stmtCache memoizes, across the DAGs of a MEC, each statement sketch's
// fill together with select's verdicts on the filled statement. Two DAGs
// sharing a (GIVEN set, ON) pair concretize it identically (§7), and the
// statement's coverage, verifier verdict and canonical fragment depend on
// the statement alone, so a miss fills and scores the statement once per
// distinct statement rather than once per DAG containing it. It is safe
// for concurrent use — the parallel MEC fill shares one cache across
// workers, and an identical hole requested by two DAGs at once is still
// filled exactly once (sharded singleflight, see par.Cache). One cache
// serves one relation and one set of fill options.
type stmtCache struct {
	rel   *dataset.Relation
	opts  FillOptions
	dom   sat.Domains // rel's domains, the universe of the canon fragments
	canon bool        // compute canon fragments (dedup is on)
	obs   *obs.Registry
	calls atomic.Int64 // solver queries spent on canon fragments
	cache par.Cache[cachedStmt]
}

func newStmtCache(rel *dataset.Relation, opts FillOptions, canon bool, reg *obs.Registry) *stmtCache {
	return &stmtCache{rel: rel, opts: opts, dom: sat.DomainsOf(rel), canon: canon, obs: reg}
}

// cachedStmt is one statement sketch's fill and its verdicts; when ok is
// false the sketch filled to ⊥ and the verdicts are zero.
type cachedStmt struct {
	stmt  dsl.Statement
	ok    bool
	cov   float64 // dsl.StatementCoverage(stmt, rel)
	bad   bool    // analysis.Verify raises an Error on stmt
	inDom bool    // analysis.WithinDomains(stmt, dom); checked only for canon
	canon string  // analysis.CanonStatement over dom, when inDom
}

// get returns sk's entry, filling and scoring the statement on a miss,
// with cache hit/miss trace instants on the scope carried by ctx (see
// par.Cache.DoTraced). The verifier check and the canon fragment are
// timed as stages (synth.verify, synth.canon) under that scope, so each
// histogram counts distinct statements and is schedule-independent. The
// coverage needs no stage of its own: the support it divides is summed
// in the fill's group loop, so its cost sits in synth.fill.
func (c *stmtCache) get(ctx context.Context, sk sketch.Stmt) cachedStmt {
	return c.cache.DoTraced(ctx, "stmt", sk.Key(), func() cachedStmt {
		stmt, support, ok := fillStatement(c.rel, sk, c.opts)
		e := cachedStmt{stmt: stmt, ok: ok}
		if !ok {
			return e
		}
		e.cov = float64(support) / float64(c.rel.NumRows())
		scope := trace.FromContext(ctx)
		sp := c.obs.Stage(scope, "synth.verify")
		e.bad = analysis.StatementHasErrors(&e.stmt, c.rel)
		sp.End()
		if c.canon && !e.bad {
			sp = c.obs.Stage(scope, "synth.canon")
			// A fragment over dom is the statement's part of Canon(prog,
			// dom) for every prog whose statements are all inDom: then
			// widening is the identity (see analysis.CanonStatement).
			if e.inDom = analysis.WithinDomains(stmt, c.dom); e.inDom {
				slv := sat.NewSolver(c.dom)
				e.canon = analysis.CanonStatement(slv, stmt)
				c.calls.Add(slv.Calls())
			}
			sp.End()
		}
		return e
	})
}

// Stats reports cache effectiveness. The counts are schedule-independent:
// one miss per distinct statement key, hits for every other access.
func (c *stmtCache) Stats() (hits, misses int) { return c.cache.Stats() }

// FillProgram concretizes every statement of a program sketch (Alg. 1,
// outer loop), dropping statements that concretize to ⊥. It fills each
// statement afresh; SelectProgram fills a MEC's programs through one
// statement cache instead.
func FillProgram(rel *dataset.Relation, p sketch.Prog, opts FillOptions) *dsl.Program {
	prog := &dsl.Program{}
	for _, sk := range p.Stmts {
		if stmt, ok := FillStatement(rel, sk, opts); ok {
			prog.Stmts = append(prog.Stmts, stmt)
		}
	}
	return prog
}
