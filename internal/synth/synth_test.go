package synth

import (
	"context"
	"reflect"
	"testing"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/errgen"
	"github.com/guardrail-db/guardrail/internal/sketch"
)

func postalRel(t *testing.T, n int, seed int64) *dataset.Relation {
	t.Helper()
	rel, err := bn.PostalChain(8).Sample(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestFillStatementExactFD(t *testing.T) {
	rel := postalRel(t, 2000, 1)
	stmt, ok := FillStatement(rel, sketch.Stmt{Given: []int{0}, On: 1}, FillOptions{Epsilon: 0.01})
	if !ok {
		t.Fatal("exact FD failed to concretize")
	}
	if len(stmt.Branches) == 0 {
		t.Fatal("no branches")
	}
	if !dsl.EpsValidStatement(stmt, rel, 0.01) {
		t.Fatal("filled statement not ε-valid")
	}
	if cov := dsl.StatementCoverage(stmt, rel); cov < 0.99 {
		t.Fatalf("coverage = %g, want ~1", cov)
	}
}

func TestFillStatementNoisyData(t *testing.T) {
	rel := postalRel(t, 2000, 2)
	if _, err := errgen.Inject(rel, errgen.Options{Rate: 0.01, MinErrors: 5, Columns: []int{1}, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	// With ε=0.05 the mode still wins in every large group.
	stmt, ok := FillStatement(rel, sketch.Stmt{Given: []int{0}, On: 1}, FillOptions{Epsilon: 0.05})
	if !ok {
		t.Fatal("noisy FD failed to concretize")
	}
	if cov := dsl.StatementCoverage(stmt, rel); cov < 0.9 {
		t.Fatalf("coverage = %g under 1%% noise", cov)
	}
	// With ε=0 the corrupted groups drop out, shrinking coverage.
	strict, ok := FillStatement(rel, sketch.Stmt{Given: []int{0}, On: 1}, FillOptions{Epsilon: 1e-9})
	if ok {
		if dsl.StatementCoverage(strict, rel) >= dsl.StatementCoverage(stmt, rel) {
			t.Fatal("stricter ε should not increase coverage")
		}
	}
}

func TestFillStatementUnrelatedAttrs(t *testing.T) {
	// Country has 2 values; PostalCode groups all map deterministically to
	// Country transitively, so this fills — but a truly random target with
	// high-cardinality conditions should fail at low ε.
	nw := &bn.Network{Nodes: []bn.Node{
		{Name: "a", Card: 4, CPT: []float64{0.25, 0.25, 0.25, 0.25}},
		{Name: "b", Card: 4, CPT: []float64{0.25, 0.25, 0.25, 0.25}},
	}}
	rel, err := nw.Sample(4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, ok := FillStatement(rel, sketch.Stmt{Given: []int{0}, On: 1}, FillOptions{Epsilon: 0.02})
	if ok {
		t.Fatal("independent attributes produced an ε-valid statement at ε=0.02")
	}
}

func TestFillStatementEdgeCases(t *testing.T) {
	rel := postalRel(t, 100, 4)
	if _, ok := FillStatement(rel, sketch.Stmt{Given: nil, On: 1}, FillOptions{}); ok {
		t.Fatal("empty GIVEN filled")
	}
	empty := dataset.New("e", []string{"a", "b"})
	if _, ok := FillStatement(empty, sketch.Stmt{Given: []int{0}, On: 1}, FillOptions{}); ok {
		t.Fatal("empty relation filled")
	}
}

func TestFillStatementSkipsMissingDeterminants(t *testing.T) {
	rel := dataset.New("m", []string{"a", "b"})
	rel.AppendRow([]string{"", "y"})
	rel.AppendRow([]string{"", "y"})
	rel.AppendRow([]string{"x", "y"})
	rel.AppendRow([]string{"x", "y"})
	stmt, ok := FillStatement(rel, sketch.Stmt{Given: []int{0}, On: 1}, FillOptions{Epsilon: 0.01, MinSupport: 2})
	if !ok {
		t.Fatal("statement should fill from the non-missing rows")
	}
	if len(stmt.Branches) != 1 {
		t.Fatalf("missing determinants should not form branches: %+v", stmt.Branches)
	}
}

func TestFillStatementMinSupport(t *testing.T) {
	rel := dataset.New("s", []string{"a", "b"})
	rel.AppendRow([]string{"x", "p"})
	rel.AppendRow([]string{"x", "p"})
	rel.AppendRow([]string{"y", "q"}) // singleton group
	stmt, ok := FillStatement(rel, sketch.Stmt{Given: []int{0}, On: 1}, FillOptions{Epsilon: 0.01, MinSupport: 2})
	if !ok || len(stmt.Branches) != 1 {
		t.Fatalf("MinSupport not enforced: %+v ok=%v", stmt, ok)
	}
}

func TestStatementCache(t *testing.T) {
	rel := postalRel(t, 500, 5)
	cache := newStmtCache(rel, FillOptions{}, true, nil)
	ctx := context.Background()
	sk := sketch.Stmt{Given: []int{0}, On: 1}
	a, b := cache.get(ctx, sk), cache.get(ctx, sk)
	if !a.ok || !b.ok {
		t.Fatal("cache fill failed")
	}
	if want := oracleEntry(rel, sk, FillOptions{}); !reflect.DeepEqual(a, want) || !reflect.DeepEqual(b, want) {
		t.Fatal("cache returned a different entry")
	}
	hits, misses := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	// A second key gets its own miss, then hits.
	cache.get(ctx, sketch.Stmt{Given: []int{0}, On: 2})
	cache.get(ctx, sketch.Stmt{Given: []int{0}, On: 2})
	hits, _ = cache.Stats()
	if hits != 2 {
		t.Fatalf("hits=%d", hits)
	}
}

func TestSynthesizeRecoversPostalChain(t *testing.T) {
	rel := postalRel(t, 4000, 6)
	res, err := Synthesize(rel, Options{Epsilon: 0.02, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Stmts) == 0 {
		t.Fatal("no statements synthesized")
	}
	if res.Coverage < 0.9 {
		t.Fatalf("coverage = %g", res.Coverage)
	}
	if !dsl.EpsValid(res.Program, rel, 0.02) {
		t.Fatal("synthesized program not ε-valid on training data")
	}
	if res.NumDAGs < 1 {
		t.Fatal("no DAGs enumerated")
	}
	// The synthesized program must detect injected corruption.
	dirty := rel.Clone()
	mask, err := errgen.Inject(dirty, errgen.Options{Rate: 0.02, MinErrors: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	for i := 0; i < dirty.NumRows(); i++ {
		if len(res.Program.Detect(dirty.Row(i, nil))) > 0 && mask.RowDirty[i] {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("synthesized program detected none of the injected errors")
	}
}

func TestSynthesizeIdentityVsAux(t *testing.T) {
	rel := postalRel(t, 1500, 8)
	aux, err := Synthesize(rel, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	id, err := Synthesize(rel, Options{Seed: 8, IdentitySampler: true})
	if err != nil {
		t.Fatal(err)
	}
	if aux.Coverage < id.Coverage-0.05 {
		t.Fatalf("aux sampler (%g) should not trail identity (%g) badly", aux.Coverage, id.Coverage)
	}
}

func TestSynthesizeTooFewRows(t *testing.T) {
	rel := dataset.New("t", []string{"a"})
	rel.AppendRow([]string{"x"})
	if _, err := Synthesize(rel, Options{}); err == nil {
		t.Fatal("expected error for tiny relation")
	}
}

func TestSynthesizeCacheEffectiveAcrossMEC(t *testing.T) {
	rel := postalRel(t, 2000, 9)
	res, err := Synthesize(rel, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDAGs > 1 && res.CacheHits == 0 {
		t.Fatalf("MEC of %d DAGs produced no cache hits", res.NumDAGs)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	rel := postalRel(t, 1000, 10)
	a, err := Synthesize(rel, Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(rel, Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := dsl.Format(a.Program, rel), dsl.Format(b.Program, rel)
	if fa != fb {
		t.Fatalf("synthesis not deterministic:\n%s\nvs\n%s", fa, fb)
	}
}
