// Package pc implements the PC structure-learning algorithm used by
// Guardrail's sketch learner (§4): starting from a complete undirected
// graph, it deletes edges between conditionally independent variables with
// conditioning sets of growing size, records separation sets, orients
// v-structures, and closes under the Meek rules, producing the CPDAG that
// represents the Markov equivalence class of the data's PGM.
package pc

import (
	"context"
	"fmt"
	"sort"

	"github.com/guardrail-db/guardrail/internal/graph"
	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
	"github.com/guardrail-db/guardrail/internal/par"
	"github.com/guardrail-db/guardrail/internal/stats"
)

// Options tunes the learner.
type Options struct {
	// Alpha is the significance level of the G² tests (default 0.01).
	Alpha float64
	// MaxCond caps the conditioning-set size (default 3).
	MaxCond int
	// MaxCard skips variables with more categories than this when forming
	// conditioning sets, a standard guard against sparse strata (default 64).
	MaxCard int
	// Workers bounds the concurrency of each level's CI sweep; <= 0 uses
	// every core, 1 forces the serial path. Any value yields the same
	// Result: edge decisions within a level are independent (the stable-PC
	// order-independence property) and are merged at the level barrier in
	// a fixed edge order.
	Workers int
	// Obs receives pc.ci_tests / pc.edges_removed counters and the
	// pc.learn stage histogram; nil records nothing.
	Obs *obs.Registry
	// Trace parents the learner's span tree (pc.learn → pc.level →
	// pc.edge); the zero scope records nothing, though pc.learn still
	// reads the clock twice. Timings never feed back into results.
	Trace trace.Scope
}

func (o *Options) defaults() {
	if o.Alpha == 0 {
		o.Alpha = 0.01
	}
	if o.MaxCond == 0 {
		o.MaxCond = 3
	}
	if o.MaxCard == 0 {
		o.MaxCard = 64
	}
}

// Result carries the learned structure and bookkeeping for reporting.
type Result struct {
	// CPDAG is the learned equivalence class.
	CPDAG *graph.PDAG
	// Skeleton is the undirected graph before orientation.
	Skeleton *graph.PDAG
	// SepSets maps graph.PairKey(a,b) to the separating set that removed
	// the edge a-b.
	SepSets map[int64][]int
	// Tests counts the independence tests performed.
	Tests int
	// SepsetSkips counts candidate separating sets a test rejected as
	// malformed (GTest returned an error). Summed at the level barrier in
	// edge order, so the count is a function of the data and options
	// alone, never of the worker schedule.
	SepsetSkips int
}

// Learn runs the PC algorithm over d's raw columns.
func Learn(d stats.Data, opts Options) (*Result, error) {
	return LearnFrom(stats.Tester(d), opts)
}

// LearnFrom runs the PC algorithm against any CI-test provider — raw
// columns via stats.Tester, or merged windowed contingency tables via
// internal/stats/incr, which is what makes incremental re-learning cost
// O(window change) instead of O(data).
func LearnFrom(t stats.CITester, opts Options) (*Result, error) {
	return learn(t, nil, nil, opts)
}

// LearnWarm re-learns warm-started from a previous result: edges between
// two clean variables keep their previous decision (present, or absent
// with its recorded separating set), and only edges with at least one
// dirty endpoint are re-decided from scratch. dirty[i] marks variable i
// as having drifted statistics; len(dirty) must equal t.NumVars(), which
// must match prev's variable count. A nil prev falls back to LearnFrom.
//
// Soundness: a CI decision i ⟂ j | S only reads the joint distribution
// of {i, j} ∪ S. Conditioning candidates are drawn from the endpoints'
// neighborhoods, so when neither endpoint is dirty and the statistics of
// clean variables are unchanged, every test that decided the edge in the
// previous run returns the same answer — re-running it is pure waste.
// Edges with a dirty endpoint start from the complete-graph state and go
// through the full level sweep, with conditioning candidates drawn from
// the current (partially frozen) adjacency.
func LearnWarm(t stats.CITester, prev *Result, dirty []bool, opts Options) (*Result, error) {
	if prev == nil {
		return LearnFrom(t, opts)
	}
	if len(dirty) != t.NumVars() || prev.Skeleton == nil || prev.Skeleton.N() != t.NumVars() {
		return nil, fmt.Errorf("pc: warm start shape mismatch: %d vars, %d dirty flags, prev %v",
			t.NumVars(), len(dirty), prev.Skeleton != nil)
	}
	return learn(t, prev, dirty, opts)
}

// learn is the shared PC core. With prev == nil it is plain stable-PC
// from the complete graph; with prev and dirty it is the warm-started
// variant described on LearnWarm.
func learn(t stats.CITester, prev *Result, dirty []bool, opts Options) (*Result, error) {
	opts.defaults()
	n := t.NumVars()
	sp := opts.Obs.Stage(opts.Trace, "pc.learn").Int("vars", int64(n))
	defer sp.End()
	lsc := sp.Scope()
	if n == 0 {
		return nil, fmt.Errorf("pc: no variables")
	}
	eligible := func(i, j int) bool { return true }
	skel := graph.NewPDAG(n)
	sep := make(map[int64][]int)
	if prev == nil {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				skel.AddUndirected(i, j)
			}
		}
	} else {
		eligible = func(i, j int) bool { return dirty[i] || dirty[j] }
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				switch {
				case eligible(i, j):
					// Dirty pair: forget the old decision, re-decide from
					// the complete-graph state.
					skel.AddUndirected(i, j)
				case prev.Skeleton.HasUndirected(i, j):
					skel.AddUndirected(i, j)
				default:
					if s, ok := prev.SepSets[graph.PairKey(i, j)]; ok {
						sep[graph.PairKey(i, j)] = append([]int(nil), s...)
					}
				}
			}
		}
	}
	tests := 0
	skips := 0

	for level := 0; level <= opts.MaxCond; level++ {
		// Collect the current adjacency before this level's deletions, as
		// in the stable PC variant, so results do not depend on edge order.
		adj := make([][]int, n)
		for i := 0; i < n; i++ {
			adj[i] = skel.UndirectedNeighbors(i)
		}
		type edge struct{ i, j int }
		var edges []edge
		for i := 0; i < n; i++ {
			for _, j := range adj[i] {
				if j > i && eligible(i, j) {
					edges = append(edges, edge{i, j})
				}
			}
		}
		// Decide every edge of the level against the frozen adjacency
		// snapshot concurrently — decisions are independent because no
		// deletion is applied until the level barrier below.
		lsp := lsc.Start("pc.level").Int("level", int64(level)).Int("edges", int64(len(edges)))
		decisions, err := par.Map(trace.ContextWithScope(context.Background(), lsp.Scope()),
			opts.Workers, len(edges),
			func(ctx context.Context, k int) (edgeDecision, error) {
				esp := trace.FromContext(ctx).Start("pc.edge").
					Int("i", int64(edges[k].i)).Int("j", int64(edges[k].j))
				dec := decideEdge(t, edges[k].i, edges[k].j, adj, level, opts)
				esp.Int("tests", int64(dec.tests)).Bool("removed", dec.remove).End()
				return dec, nil
			})
		if err != nil {
			lsp.End()
			return nil, err
		}
		// Level barrier: merge deletions and sepsets in edge order.
		removedAny := false
		removed := 0
		for k, dec := range decisions {
			tests += dec.tests
			skips += dec.skips
			if dec.remove {
				skel.RemoveEdge(edges[k].i, edges[k].j)
				sep[graph.PairKey(edges[k].i, edges[k].j)] = dec.sep
				removedAny = true
				removed++
			}
		}
		lsp.Int("removed", int64(removed)).End()
		if !removedAny && level > 0 {
			break
		}
	}

	cp := graph.OrientVStructures(skel, sep)
	graph.MeekClose(cp)
	opts.Obs.Counter("pc.ci_tests").Add(int64(tests))
	opts.Obs.Counter("pc.edges_removed").Add(int64(len(sep)))
	opts.Obs.Counter("pc.sepsets_skipped").Add(int64(skips))
	return &Result{CPDAG: cp, Skeleton: skel, SepSets: sep, Tests: tests, SepsetSkips: skips}, nil
}

// edgeDecision is the outcome of one edge's CI sweep at one level: whether
// the edge goes, the separating set that removed it, how many tests it
// took to decide, and how many candidate sets were skipped as malformed.
type edgeDecision struct {
	remove bool
	sep    []int
	tests  int
	skips  int
}

// decideEdge tests i ⟂ j | S for all size-level subsets S of each
// endpoint's snapshot neighborhood; the first independence wins. It reads
// the shared statistics and adjacency snapshot but mutates nothing, so the
// per-level sweep can fan out across workers.
func decideEdge(t stats.CITester, i, j int, adj [][]int, level int, opts Options) edgeDecision {
	dec := edgeDecision{}
	for _, base := range [2][2]int{{i, j}, {j, i}} {
		cands := filterCard(t, exclude(adj[base[0]], base[1]), opts.MaxCard)
		if len(cands) < level {
			continue
		}
		forEachSubset(cands, level, func(s []int) bool {
			dec.tests++
			res, err := t.Test(i, j, s)
			if err != nil {
				// A malformed separating set (a tester error) must not pass
				// silently: it is counted per edge and surfaced through the
				// pc.sepsets_skipped counter and Result.SepsetSkips so run
				// reports show when the search space was quietly narrowed.
				dec.skips++
				return true // keep searching the remaining sets
			}
			if res.Independent(opts.Alpha) {
				dec.remove = true
				dec.sep = append([]int(nil), s...)
				return false
			}
			return true
		})
		if dec.remove {
			return dec
		}
		if base[0] == j && base[1] == i && sameSet(adj[i], adj[j], i, j) {
			break // symmetric neighborhoods: second pass is redundant
		}
	}
	return dec
}

func exclude(xs []int, v int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

func filterCard(t stats.CITester, xs []int, maxCard int) []int {
	out := xs[:0:0]
	for _, x := range xs {
		if t.Card(x) <= maxCard {
			out = append(out, x)
		}
	}
	return out
}

func sameSet(a, b []int, skipA, skipB int) bool {
	fa := exclude(a, skipB)
	fb := exclude(b, skipA)
	if len(fa) != len(fb) {
		return false
	}
	sa := append([]int(nil), fa...)
	sb := append([]int(nil), fb...)
	sort.Ints(sa)
	sort.Ints(sb)
	for k := range sa {
		if sa[k] != sb[k] {
			return false
		}
	}
	return true
}

// forEachSubset invokes f on every size-k subset of xs until f returns
// false.
func forEachSubset(xs []int, k int, f func([]int) bool) {
	if k == 0 {
		f(nil)
		return
	}
	if k > len(xs) {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	buf := make([]int, k)
	for {
		for i, v := range idx {
			buf[i] = xs[v]
		}
		if !f(buf) {
			return
		}
		// Advance the combination.
		i := k - 1
		for i >= 0 && idx[i] == len(xs)-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
