package sqlexec

import (
	"math"
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/ml"
	"github.com/guardrail-db/guardrail/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// numbersRel is a tiny relation with numeric-looking strings.
func numbersRel() *dataset.Relation {
	r := dataset.New("t", []string{"grp", "age", "city"})
	rows := [][]string{
		{"a", "10", "X"},
		{"a", "20", "Y"},
		{"b", "30", "X"},
		{"b", "50", "X"},
		{"b", "40", "Y"},
	}
	for _, row := range rows {
		r.AppendRow(row)
	}
	return r
}

func TestParseErrorsSurface(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT COUNT( FROM t",
		"SELECT a FROM t GROUP",
		"SELECT 'oops FROM t",
		"SELECT a b c FROM t",
		"SELECT CASE END FROM t",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Fatalf("no parse error for %q", q)
		}
	}
}

func TestSimpleAggregates(t *testing.T) {
	rel := numbersRel()
	res, err := Exec("SELECT COUNT(*), AVG(age), SUM(age), MIN(age), MAX(age) FROM t", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	got := res.Rows[0]
	want := []float64{5, 30, 150, 10, 50}
	for i, w := range want {
		if !got[i].IsNum || !near(got[i].Num, w) {
			t.Fatalf("col %d = %v, want %g", i, got[i], w)
		}
	}
}

func TestGroupByAndWhere(t *testing.T) {
	rel := numbersRel()
	res, err := Exec("SELECT grp, AVG(age) AS avg_age FROM t WHERE city = 'X' GROUP BY grp", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Deterministic group order (sorted by key).
	if res.Rows[0][0].Str != "a" || !near(res.Rows[0][1].Num, 10) {
		t.Fatalf("group a wrong: %v", res.Rows[0])
	}
	if res.Rows[1][0].Str != "b" || !near(res.Rows[1][1].Num, 40) {
		t.Fatalf("group b wrong: %v", res.Rows[1])
	}
	if res.Cols[1] != "avg_age" {
		t.Fatalf("alias lost: %v", res.Cols)
	}
}

func TestCaseWhenArithmetic(t *testing.T) {
	rel := numbersRel()
	res, err := Exec("SELECT AVG(CASE WHEN city = 'X' THEN 1 ELSE 0 END) FROM t", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Rows[0][0].Num, 0.6) {
		t.Fatalf("got %v, want 0.6", res.Rows[0][0])
	}
	res, err = Exec("SELECT SUM(age) / COUNT(*) FROM t WHERE age >= 20 AND age <= 40", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Rows[0][0].Num, 30) {
		t.Fatalf("got %v, want 30", res.Rows[0][0])
	}
}

func TestComparisonAndBooleans(t *testing.T) {
	rel := numbersRel()
	cases := []struct {
		q    string
		want float64
	}{
		{"SELECT COUNT(*) FROM t WHERE age != 10", 4},
		{"SELECT COUNT(*) FROM t WHERE age <> 10", 4},
		{"SELECT COUNT(*) FROM t WHERE age > 20 OR city = 'Y'", 4},
		{"SELECT COUNT(*) FROM t WHERE NOT city = 'X'", 2},
		{"SELECT COUNT(*) FROM t WHERE age < 25 AND grp = 'a'", 2},
		{"SELECT COUNT(*) FROM t WHERE age - 5 = 15", 1},
		{"SELECT COUNT(*) FROM t WHERE age * 2 >= 80", 2},
	}
	for _, c := range cases {
		res, err := Exec(c.q, rel, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if !near(res.Rows[0][0].Num, c.want) {
			t.Fatalf("%s = %v, want %g", c.q, res.Rows[0][0], c.want)
		}
	}
}

func TestUnknownColumnAndModel(t *testing.T) {
	rel := numbersRel()
	if _, err := Exec("SELECT nope FROM t", rel, nil); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := Exec("SELECT PREDICT(city) FROM t", rel, nil); err == nil {
		t.Fatal("missing model accepted")
	}
	if _, err := Exec("SELECT age FROM other_table", rel, nil); err == nil {
		t.Fatal("wrong table accepted")
	}
}

// hospitalEnv trains a model on clean hospital data and returns everything
// the ML-integrated tests need.
func hospitalEnv(t *testing.T) (*dataset.Relation, *Env, int) {
	t.Helper()
	rel, err := bn.Hospital().Sample(4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	label := rel.AttrIndex("dysp")
	model, err := ml.Train(rel, label)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{Models: map[string]ml.Model{"dysp": model}}
	return rel, env, label
}

func TestPredictExpression(t *testing.T) {
	rel, env, _ := hospitalEnv(t)
	q := "SELECT floor, AVG(CASE WHEN PREDICT(dysp) = 'dysp_v0' THEN 1 ELSE 0 END) AS rate FROM hospital GROUP BY floor"
	rel.SetName("hospital")
	res, err := Exec(q, rel, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 floors", len(res.Rows))
	}
	rates, err := res.Column("rate")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rates {
		if r < 0 || r > 1 {
			t.Fatalf("rate %g out of [0,1]", r)
		}
	}
	if res.Stats.PredictCalls == 0 {
		t.Fatal("no predictions made")
	}
}

func TestPredSuffixEquivalent(t *testing.T) {
	rel, env, _ := hospitalEnv(t)
	rel.SetName("hospital")
	a, err := Exec("SELECT COUNT(*) FROM hospital WHERE PREDICT(dysp) = 'dysp_v0'", rel, env)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Exec("SELECT COUNT(*) FROM hospital WHERE hospital.dysp_pred = 'dysp_v0'", rel, env)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows[0][0].Num != b.Rows[0][0].Num {
		t.Fatalf("PREDICT() and _pred disagree: %v vs %v", a.Rows[0][0], b.Rows[0][0])
	}
}

func TestPredicatePushdownSkipsInference(t *testing.T) {
	rel, env, _ := hospitalEnv(t)
	rel.SetName("hospital")
	q := "SELECT COUNT(*) FROM hospital WHERE floor = 'floor_v0' AND PREDICT(dysp) = 'dysp_v0'"
	withPD, err := Exec(q, rel, env)
	if err != nil {
		t.Fatal(err)
	}
	env2 := &Env{Models: env.Models, DisablePushdown: true}
	withoutPD, err := Exec(q, rel, env2)
	if err != nil {
		t.Fatal(err)
	}
	if withPD.Rows[0][0].Num != withoutPD.Rows[0][0].Num {
		t.Fatal("pushdown changed the result")
	}
	if withPD.Stats.PredictCalls >= withoutPD.Stats.PredictCalls {
		t.Fatalf("pushdown did not reduce inference: %d vs %d",
			withPD.Stats.PredictCalls, withoutPD.Stats.PredictCalls)
	}
}

func TestGuardInterception(t *testing.T) {
	rel, env, _ := hospitalEnv(t)
	rel.SetName("hospital")
	// Synthesize constraints on the clean data, then corrupt `either`.
	res, err := core.Synthesize(rel, core.Options{Epsilon: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dirty := rel.Clone()
	eitherIdx := dirty.AttrIndex("either")
	flipped := 0
	for i := 0; i < dirty.NumRows() && flipped < 400; i += 7 {
		dirty.SetCode(i, eitherIdx, 1-dirty.Code(i, eitherIdx))
		flipped++
	}
	q := "SELECT AVG(CASE WHEN PREDICT(dysp) = 'dysp_v0' THEN 1 ELSE 0 END) AS rate FROM hospital"
	truth, err := Exec(q, rel, env)
	if err != nil {
		t.Fatal(err)
	}
	dirtyRes, err := Exec(q, dirty, env)
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := Exec(q, dirty, &Env{Models: env.Models, Guard: core.NewGuard(res.Program, core.Rectify)})
	if err != nil {
		t.Fatal(err)
	}
	tv := truth.Rows[0][0].Num
	errDirty := math.Abs(dirtyRes.Rows[0][0].Num - tv)
	errGuard := math.Abs(guarded.Rows[0][0].Num - tv)
	if errGuard > errDirty {
		t.Fatalf("guard increased error: dirty=%g guarded=%g", errDirty, errGuard)
	}
	if guarded.Stats.GuardTime == 0 {
		t.Fatal("guard time not recorded")
	}
	// The dirty relation itself must be untouched by the guarded query.
	diff := 0
	for i := 0; i < dirty.NumRows(); i++ {
		if dirty.Code(i, eitherIdx) != rel.Code(i, eitherIdx) {
			diff++
		}
	}
	if diff != flipped {
		t.Fatalf("guarded query mutated the source relation: %d vs %d flips", diff, flipped)
	}
}

func TestGuardRaiseAbortsQuery(t *testing.T) {
	rel, env, _ := hospitalEnv(t)
	rel.SetName("hospital")
	res, err := core.Synthesize(rel, core.Options{Epsilon: 0.02, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dirty := rel.Clone()
	eitherIdx := dirty.AttrIndex("either")
	dirty.SetCode(0, eitherIdx, 1-dirty.Code(0, eitherIdx))
	_, err = Exec("SELECT COUNT(*) FROM hospital WHERE PREDICT(dysp) = 'dysp_v0'", dirty,
		&Env{Models: env.Models, Guard: core.NewGuard(res.Program, core.Raise)})
	if err == nil || !strings.Contains(err.Error(), "guard") {
		t.Fatalf("raise strategy did not abort: %v", err)
	}
}

func TestValueHelpers(t *testing.T) {
	if NumValue(3).String() != "3" || StrValue("x").String() != "x" || NullValue.String() != "NULL" {
		t.Fatal("value rendering wrong")
	}
	if NullValue.truthy() || NumValue(0).truthy() || StrValue("").truthy() {
		t.Fatal("falsy values reported truthy")
	}
	if !NumValue(2).truthy() || !StrValue("a").truthy() {
		t.Fatal("truthy values reported falsy")
	}
}

func TestResultColumnErrors(t *testing.T) {
	rel := numbersRel()
	res, err := Exec("SELECT grp, COUNT(*) FROM t GROUP BY grp", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Column("nope"); err == nil {
		t.Fatal("missing column accepted")
	}
	if _, err := res.Column("grp"); err == nil {
		t.Fatal("non-numeric column accepted")
	}
	if vals, err := res.Column("COUNT(*)"); err != nil || len(vals) != 2 {
		t.Fatalf("count column: %v %v", vals, err)
	}
}

func TestMissingValuesAreNull(t *testing.T) {
	rel := dataset.New("t", []string{"a", "b"})
	rel.AppendRow([]string{"1", ""})
	rel.AppendRow([]string{"2", "5"})
	res, err := Exec("SELECT AVG(b), COUNT(b) FROM t", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Rows[0][0].Num, 5) || !near(res.Rows[0][1].Num, 1) {
		t.Fatalf("NULL handling wrong: %v", res.Rows[0])
	}
}

// TestGuardJIT: a scan of at least guardJITRows rows compiles a
// still-interpreted guard and counts sql.guard_jit; a smaller scan keeps
// the guard on the AST interpreter.
func TestGuardJIT(t *testing.T) {
	for _, tc := range []struct {
		rows int
		jit  bool
	}{{guardJITRows, true}, {guardJITRows - 1, false}} {
		rel := dataset.New("t", []string{"a", "b"})
		for i := 0; i < tc.rows; i++ {
			v := []string{"0", "1"}[i%2]
			rel.AppendRow([]string{v, v})
		}
		prog, err := dsl.Parse("GIVEN a ON b HAVING\n  IF a = \"0\" THEN b <- \"0\";\n  IF a = \"1\" THEN b <- \"1\";\n", rel)
		if err != nil {
			t.Fatal(err)
		}
		guard := core.NewGuard(prog, core.Ignore)
		reg := obs.New()
		res, err := Exec("SELECT COUNT(*) AS n FROM t", rel, &Env{Guard: guard, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Num; got != float64(tc.rows) {
			t.Errorf("%d rows: COUNT(*) = %g", tc.rows, got)
		}
		wantJIT, wantEngine := int64(0), "ast"
		if tc.jit {
			wantJIT, wantEngine = 1, "compiled"
		}
		if got := reg.Counter("sql.guard_jit").Value(); got != wantJIT {
			t.Errorf("%d rows: sql.guard_jit = %d, want %d", tc.rows, got, wantJIT)
		}
		if got := reg.Counter("sql.guard_jit_failed").Value(); got != 0 {
			t.Errorf("%d rows: sql.guard_jit_failed = %d, want 0", tc.rows, got)
		}
		if got := guard.Engine().Backend(); got != wantEngine {
			t.Errorf("%d rows: guard engine %s, want %s", tc.rows, got, wantEngine)
		}
	}
}
