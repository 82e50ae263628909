package synth

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/guardrail-db/guardrail/internal/auxdist"
	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/analysis"
	"github.com/guardrail-db/guardrail/internal/graph"
	"github.com/guardrail-db/guardrail/internal/pc"
	"github.com/guardrail-db/guardrail/internal/sketch"
	"github.com/guardrail-db/guardrail/internal/smt/sat"
)

// mecOf learns rel's CPDAG from an auxiliary sample, as Synthesize does,
// and enumerates its DAGs.
func mecOf(t testing.TB, rel *dataset.Relation, seed int64) []*graph.DAG {
	t.Helper()
	aux, err := auxdist.Sample(rel, auxdist.Options{Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	learned, err := pc.Learn(aux, pc.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dags, err := graph.EnumerateMEC(learned.CPDAG, 256)
	if err != nil && err != graph.ErrEnumLimit {
		t.Fatal(err)
	}
	return dags
}

// TestSelectMatchesProgramOracles checks every candidate SelectProgram
// assembles from per-statement cache entries against the whole-program
// functions it replaces, on every DAG of every Table-2 analog's MEC: the
// program equals an uncached fill, the verifier verdict equals
// analysis.Verify's, the canonical text equals analysis.Canon's, and the
// coverage equals dsl.Coverage bit for bit.
func TestSelectMatchesProgramOracles(t *testing.T) {
	fill := FillOptions{Epsilon: 0.02}
	total := 0
	for _, spec := range bn.Registry {
		for _, seed := range []int64{1, 2} {
			rel, err := spec.Generate(0.1, seed)
			if err != nil {
				t.Fatal(err)
			}
			dom := sat.DomainsOf(rel)
			cache := newStmtCache(rel, fill, true, nil)
			dags := mecOf(t, rel, seed)
			total += len(dags)
			for k, d := range dags {
				where := fmt.Sprintf("%s seed %d dag %d", spec.Name, seed, k)
				sk := sketch.FromDAG(d)
				c := fillCandidate(context.Background(), sk, cache)
				if want := FillProgram(rel, sk, fill); !reflect.DeepEqual(c.prog, want) {
					t.Fatalf("%s: assembled program differs from an uncached fill", where)
				}
				if want := analysis.HasErrors(analysis.Verify(c.prog, rel)); c.pruned != want {
					t.Fatalf("%s: pruned = %v, analysis.Verify says %v", where, c.pruned, want)
				}
				if c.pruned {
					continue
				}
				if want, _ := analysis.Canon(c.prog, dom); c.canon != want {
					t.Fatalf("%s: canon %q, analysis.Canon %q", where, c.canon, want)
				}
				if want := dsl.Coverage(c.prog, rel); c.cov != want {
					t.Fatalf("%s: coverage %v, dsl.Coverage %v", where, c.cov, want)
				}
				if c.calls != 0 {
					t.Fatalf("%s: fill literals come from rel, yet canon fell back to the whole program", where)
				}
			}
		}
	}
	if total < 100 {
		t.Fatalf("only %d DAGs across the analogs; the oracles compared too little", total)
	}
}

// TestSelectCanonFallsBackOutOfDomain: when a filled literal lies outside
// the domains canon fragments were computed over, widening would change
// the statement's universe, so the candidate takes the whole-program
// analysis.Canon instead. Shrinking every domain by one value forces it.
func TestSelectCanonFallsBackOutOfDomain(t *testing.T) {
	rel := postalRel(t, 1500, 3)
	cache := newStmtCache(rel, FillOptions{}, true, nil)
	dom := cache.dom
	for a := range dom {
		dom[a]--
	}
	fellBack := 0
	for k, d := range mecOf(t, rel, 3) {
		c := fillCandidate(context.Background(), sketch.FromDAG(d), cache)
		if c.pruned {
			continue
		}
		if c.calls > 0 {
			fellBack++
		}
		if want, _ := analysis.Canon(c.prog, dom); c.canon != want {
			t.Fatalf("dag %d: canon %q, analysis.Canon %q", k, c.canon, want)
		}
	}
	if fellBack == 0 {
		t.Fatal("no candidate took the whole-program fallback")
	}
}

// TestFillStatementSupport: the support fillStatement reports is the
// summed branch support dsl.Coverage would count by scanning rows, with
// Missing cells in determinants and in the dependent attribute.
func TestFillStatementSupport(t *testing.T) {
	rel := dataset.New("m", []string{"a", "b", "c"})
	for _, row := range [][]string{
		{"x", "p", "1"}, {"x", "p", "1"}, {"x", "", "1"}, {"", "p", "1"},
		{"y", "q", "2"}, {"y", "q", "2"}, {"y", "q", ""}, {"", "", "2"},
		{"z", "p", "3"}, {"z", "p", "3"}, {"z", "p", "1"}, {"x", "q", "2"},
	} {
		if err := rel.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	filled := 0
	for _, sk := range []sketch.Stmt{
		{Given: []int{0}, On: 2},
		{Given: []int{1}, On: 2},
		{Given: []int{0, 1}, On: 2},
		{Given: []int{2}, On: 0},
	} {
		for _, eps := range []float64{0.01, 0.5} {
			stmt, support, ok := fillStatement(rel, sk, FillOptions{Epsilon: eps})
			if !ok {
				continue
			}
			filled++
			want := 0
			for _, b := range stmt.Branches {
				want += dsl.BranchSupport(b, rel)
			}
			if support != want {
				t.Errorf("%v eps %v: support %d, Σ BranchSupport %d", sk, eps, support, want)
			}
			if cov := float64(support) / float64(rel.NumRows()); cov != dsl.StatementCoverage(stmt, rel) {
				t.Errorf("%v eps %v: coverage %v, dsl.StatementCoverage %v", sk, eps, cov, dsl.StatementCoverage(stmt, rel))
			}
		}
	}
	if filled < 4 {
		t.Fatalf("only %d sketches filled; the support check compared too little", filled)
	}
}

// BenchmarkStatementCache measures select's fill and scoring across a MEC
// with and without the statement-level cache of §7: through one cache,
// each distinct statement is filled, verified, canonicalized and scored
// once; without it, each DAG's program is filled afresh and checked by
// the whole-program analysis.Verify, analysis.Canon and dsl.Coverage.
func BenchmarkStatementCache(b *testing.B) {
	rel, err := bn.PostalChain(16).Sample(3000, 1)
	if err != nil {
		b.Fatal(err)
	}
	dags := mecOf(b, rel, 1)
	sketches := make([]sketch.Prog, len(dags))
	for i, d := range dags {
		sketches[i] = sketch.FromDAG(d)
	}
	dom := sat.DomainsOf(rel)
	b.Run("with-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache := newStmtCache(rel, FillOptions{}, true, nil)
			for _, sk := range sketches {
				fillCandidate(context.Background(), sk, cache)
			}
		}
	})
	b.Run("without-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, sk := range sketches {
				prog := FillProgram(rel, sk, FillOptions{})
				if !analysis.HasErrors(analysis.Verify(prog, rel)) {
					analysis.Canon(prog, dom)
					dsl.Coverage(prog, rel)
				}
			}
		}
	})
}
