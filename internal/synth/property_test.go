package synth

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/sketch"
)

// Property: every statement FillStatement produces is ε-valid on the
// training data by construction, and its coverage lies in [0, 1].
func TestFillStatementEpsValidProperty(t *testing.T) {
	f := func(seed int64, epsRaw uint8) bool {
		eps := 0.001 + float64(epsRaw)/255*0.2
		nw := bn.RandomSEM(bn.SEMSpec{Attrs: 5, Seed: seed})
		rel, err := nw.Sample(400, seed)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		on := rng.Intn(5)
		given := []int{(on + 1 + rng.Intn(4)) % 5}
		stmt, ok := FillStatement(rel, sketch.Stmt{Given: given, On: on}, FillOptions{Epsilon: eps})
		if !ok {
			return true // nothing to check
		}
		if !dsl.EpsValidStatement(stmt, rel, eps) {
			return false
		}
		cov := dsl.StatementCoverage(stmt, rel)
		return cov >= 0 && cov <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: synthesized programs validate against their training relation
// and their reported coverage matches dsl.Coverage.
func TestSynthesizeValidProgramProperty(t *testing.T) {
	f := func(seed int64) bool {
		nw := bn.RandomSEM(bn.SEMSpec{Attrs: 5, Seed: seed})
		rel, err := nw.Sample(600, seed)
		if err != nil {
			return false
		}
		res, err := Synthesize(rel, Options{Seed: seed})
		if err != nil {
			return false
		}
		if len(res.Program.Stmts) > 0 {
			if err := res.Program.Validate(rel); err != nil {
				return false
			}
		}
		cov := dsl.Coverage(res.Program, rel)
		return cov >= res.Coverage-1e-9 && cov <= res.Coverage+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cache never changes fill results.
func TestCacheTransparencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		nw := bn.RandomSEM(bn.SEMSpec{Attrs: 4, Seed: seed})
		rel, err := nw.Sample(300, seed)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		cache := newStmtCache(rel, FillOptions{}, true, nil)
		for i := 0; i < 6; i++ {
			on := rng.Intn(4)
			given := []int{(on + 1 + rng.Intn(3)) % 4}
			sk := sketch.Stmt{Given: given, On: on}
			if !reflect.DeepEqual(cache.get(context.Background(), sk), oracleEntry(rel, sk, FillOptions{})) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
