package sqlexec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/ml"
	"github.com/guardrail-db/guardrail/internal/obs"
)

// rowIDAttr names the column withRowID appends; the space keeps queries
// from reading it.
const rowIDAttr = "row id"

// withRowID returns a copy of rel with a trailing column holding each
// row's index, so that no two rows are equal; every other attribute keeps
// its dictionary and codes, and models and guards built on rel read the
// copy's rows unchanged.
func withRowID(rel *dataset.Relation) *dataset.Relation {
	m := rel.NumAttrs()
	out := dataset.New(rel.Name(), append(slices.Clone(rel.Attrs()), rowIDAttr))
	for a := range m {
		for c := range rel.Dict(a).Len() {
			out.Intern(a, rel.Dict(a).Value(int32(c)))
		}
	}
	row := make([]int32, m+1)
	for i := range rel.NumRows() {
		rel.Row(i, row)
		row[m] = out.Intern(m, fmt.Sprint(i))
		if err := out.AppendCodes(row); err != nil {
			panic(err)
		}
	}
	return out
}

// repeated returns a relation holding every row of rel copies times, in a
// seeded shuffled order.
func repeated(rel *dataset.Relation, copies int, seed int64) *dataset.Relation {
	idx := make([]int, 0, copies*rel.NumRows())
	for range copies {
		for i := range rel.NumRows() {
			idx = append(idx, i)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	return rel.SelectRows(idx)
}

// sameOutcome reports how two executions of one query differ: the error
// texts, the columns, every value with its float bits, and the scanned,
// filtered and predicted row counts. It returns "" when they agree.
func sameOutcome(a *Result, aErr error, b *Result, bErr error) string {
	if (aErr == nil) != (bErr == nil) || aErr != nil && aErr.Error() != bErr.Error() {
		return fmt.Sprintf("errors differ: %v vs %v", aErr, bErr)
	}
	if aErr != nil {
		return ""
	}
	if !slices.Equal(a.Cols, b.Cols) {
		return fmt.Sprintf("columns differ: %v vs %v", a.Cols, b.Cols)
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("%d rows vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for j, v := range a.Rows[i] {
			w := b.Rows[i][j]
			if v.Null != w.Null || v.IsNum != w.IsNum || v.Str != w.Str || math.Float64bits(v.Num) != math.Float64bits(w.Num) {
				return fmt.Sprintf("row %d col %d: %#v vs %#v", i, j, v, w)
			}
		}
	}
	as, bs := a.Stats, b.Stats
	if as.RowsScanned != bs.RowsScanned || as.RowsFiltered != bs.RowsFiltered || as.PredictCalls != bs.PredictCalls {
		return fmt.Sprintf("stats differ: %+v vs %+v", as, bs)
	}
	return ""
}

// execBoth runs query on rel and on withRowID(rel), each with a fresh
// environment, and fails the test if the outcomes differ.
func execBoth(t *testing.T, query string, rel, unique *dataset.Relation, env func() *Env) (*Result, error) {
	t.Helper()
	a, aErr := Exec(query, rel, env())
	b, bErr := Exec(query, unique, env())
	if d := sameOutcome(a, aErr, b, bErr); d != "" {
		t.Errorf("%s: duplicated vs unique rows: %s", query, d)
	}
	return a, aErr
}

// TestDistinctRowsMatchUniqueRows: a query over a relation with repeated
// rows, where the executor guards, predicts and evaluates each distinct
// row once, returns exactly what it returns once a row-id column makes
// every row distinct — results, float bits, errors and statistics.
func TestDistinctRowsMatchUniqueRows(t *testing.T) {
	postal, prog, model := postalFixture(t)
	models := map[string]ml.Model{"Country": model}
	envs := map[string]func() *Env{
		"rectify":   func() *Env { return &Env{Models: models, Guard: core.NewGuard(prog, core.Rectify)} },
		"coerce":    func() *Env { return &Env{Models: models, Guard: core.NewGuard(prog, core.Coerce)} },
		"unguarded": func() *Env { return &Env{Models: models} },
		"nopushdown": func() *Env {
			return &Env{Models: models, Guard: core.NewGuard(prog, core.Rectify), DisablePushdown: true}
		},
	}
	postalQueries := []string{
		// The golden queries.
		"SELECT State, COUNT(*) AS n, AVG(CASE WHEN PREDICT(Country) = 'Country_v0' THEN 1 ELSE 0 END) AS m FROM t GROUP BY State",
		"SELECT City, PREDICT(Country) AS p, COUNT(*) AS n FROM t WHERE PostalCode != 'PostalCode_v3' GROUP BY City, PREDICT(Country) ORDER BY COUNT(*) DESC, City",
		// Pushed-down and residual WHERE.
		"SELECT COUNT(*) FROM t WHERE City IN ('City_v1', 'City_v2', 'City_v9') AND PREDICT(Country) = 'Country_v0'",
		"SELECT State, COUNT(*) AS n FROM t WHERE PREDICT(Country) = 'Country_v1' OR City = 'City_v4' GROUP BY State",
		"SELECT COUNT(*) FROM t WHERE State NOT IN ('State_v0', 'State_v3') AND NOT PostalCode = 'PostalCode_v7'",
		// HAVING, ORDER BY, DISTINCT, LIMIT.
		"SELECT City, COUNT(*) AS n FROM t GROUP BY City HAVING COUNT(*) > 150 ORDER BY n DESC, City LIMIT 5",
		"SELECT DISTINCT State, PREDICT(Country) FROM t",
		"SELECT City FROM t LIMIT 0",
		"SELECT City, State, PREDICT(Country) FROM t WHERE PostalCode = 'PostalCode_v5' LIMIT 40",
		// Aggregates whose float sums depend on row order.
		"SELECT Country, SUM(CASE WHEN PREDICT(Country) = Country THEN 0.1 ELSE 0.3 END) AS s, MIN(CASE WHEN City = 'City_v1' THEN 0.7 ELSE 0.2 END) FROM t GROUP BY Country",
		// Errors.
		"SELECT SUM(City + 1) FROM t",
		"SELECT COUNT(*) FROM t WHERE City * 2 > 1",
		"SELECT AVG(State) FROM t GROUP BY Country",
	}
	unique := withRowID(postal)
	for _, name := range []string{"rectify", "coerce", "unguarded", "nopushdown"} {
		for _, q := range postalQueries {
			t.Run(name, func(t *testing.T) { execBoth(t, q, postal, unique, envs[name]) })
		}
	}

	// Numeric-looking strings: "1", "1.0" and "1e0" group alike, a
	// missing cell and 'NULL' group alike.
	kv := dataset.New("t", []string{"k", "v"})
	for _, r := range [][]string{
		{"1", "3"}, {"1.0", "4"}, {"2", "5"}, {"", "6"}, {"NULL", "7"}, {"x", "8"}, {"1e0", "9"}, {"-0", "0.1"}, {"0", "-0"},
	} {
		kv.AppendRow(r)
	}
	kv = repeated(kv, 7, 1)
	bits := dataset.New("t", []string{"g", "v"})
	for i := 0; i < 1000; i++ {
		bits.AppendRow([]string{fmt.Sprint(i % 3), fmt.Sprint(i % 7)})
	}
	plain := func() *Env { return nil }
	for _, c := range []struct {
		rel     *dataset.Relation
		queries []string
	}{
		{kv, []string{
			"SELECT k, COUNT(*) AS n, SUM(v) AS s, AVG(v), MIN(v), MAX(v) FROM t GROUP BY k",
			"SELECT DISTINCT k FROM t",
			"SELECT k, v FROM t WHERE k IN (1, 'x') ORDER BY v DESC",
			"SELECT SUM(v * 0.1) FROM t WHERE v != 7 HAVING COUNT(*) > 3",
			"SELECT AVG(k) FROM t",
		}},
		{bits, []string{
			"SELECT g, SUM(CASE WHEN v > 3 THEN 0.1 ELSE v / 3 END) AS s, AVG(CASE WHEN v = 2 THEN 0.7 ELSE 0.01 * v END) AS a FROM t GROUP BY g",
			"SELECT v - g, COUNT(*) FROM t GROUP BY v - g ORDER BY COUNT(*), v - g",
		}},
		{repeated(numbersRel(), 4, 2), []string{
			"SELECT grp, AVG(age) FROM t GROUP BY grp",
			"SELECT age FROM t ORDER BY age LIMIT 7",
			"SELECT -age, city FROM t WHERE age > 15",
		}},
	} {
		u := withRowID(c.rel)
		for _, q := range c.queries {
			execBoth(t, q, c.rel, u, plain)
		}
	}
}

// countingModel wraps a model and counts its calls per row.
type countingModel struct {
	ml.Model
	calls map[string]int
}

func (m *countingModel) Predict(row []int32) int32 {
	m.calls[fmt.Sprint(row)]++
	return m.Model.Predict(row)
}

// TestPredictOncePerDistinctLiveRow: the model sees each distinct row that
// survives pushdown exactly once, while Stats.PredictCalls still counts one
// prediction per live row; sql.rows_distinct counts the distinct scanned
// rows.
func TestPredictOncePerDistinctLiveRow(t *testing.T) {
	rel, _, model := postalFixture(t)
	cm := &countingModel{Model: model, calls: map[string]int{}}
	reg := obs.New()
	res, err := Exec("SELECT State, AVG(CASE WHEN PREDICT(Country) = 'Country_v0' THEN 1 ELSE 0 END) FROM t WHERE City != 'City_v3' GROUP BY State",
		rel, &Env{Models: map[string]ml.Model{"Country": cm}, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	city, c3 := rel.AttrIndex("City"), int32(-2)
	if c, ok := rel.Dict(city).Lookup("City_v3"); ok {
		c3 = c
	}
	want, all, live := map[string]bool{}, map[string]bool{}, 0
	row := make([]int32, rel.NumAttrs())
	for i := range rel.NumRows() {
		row = rel.Row(i, row)
		all[fmt.Sprint(row)] = true
		if row[city] != c3 {
			want[fmt.Sprint(row)] = true
			live++
		}
	}
	if len(cm.calls) != len(want) {
		t.Errorf("model saw %d distinct rows, want the %d distinct live rows", len(cm.calls), len(want))
	}
	for k, n := range cm.calls {
		if n != 1 || !want[k] {
			t.Errorf("row %s: %d model calls (live: %v), want 1 for a live row", k, n, want[k])
		}
	}
	if res.Stats.PredictCalls != live || res.Stats.RowsFiltered != rel.NumRows()-live {
		t.Errorf("PredictCalls %d, RowsFiltered %d; want %d live rows of %d", res.Stats.PredictCalls, res.Stats.RowsFiltered, live, rel.NumRows())
	}
	if got := reg.Counter("sql.rows_distinct").Value(); got != int64(len(all)) {
		t.Errorf("sql.rows_distinct = %d, want %d", got, len(all))
	}
	if live == len(want) {
		t.Fatal("fixture has no repeated live rows")
	}
}

// TestDistinctErrorsMatch: a Raise guard stops at the first violating row
// with that row's error text, on repeated rows as on unique ones.
func TestDistinctErrorsMatch(t *testing.T) {
	clean, err := bn.Hospital().Sample(4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	clean.SetName("hospital")
	syn, err := core.Synthesize(clean, core.Options{Epsilon: 0.02, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(syn.Program.Stmts) < 2 {
		t.Fatalf("fixture program has %d statements, want several", len(syn.Program.Stmts))
	}
	// Corrupt a different dependent attribute in each of several rows,
	// later rows first in code order, so the error names a specific row.
	dirty := clean.Clone()
	for k, st := range syn.Program.Stmts {
		i := 900 - 150*k
		dirty.SetCode(i, st.On, 1-dirty.Code(i, st.On))
	}
	guard := func() *Env { return &Env{Guard: core.NewGuard(syn.Program, core.Raise)} }
	// The expected text: the guard's error on the first violating row.
	var want error
	g := core.NewGuard(syn.Program, core.Raise)
	row := make([]int32, dirty.NumAttrs())
	for i := 0; i < dirty.NumRows() && want == nil; i++ {
		if _, _, err := g.Step(dirty.Row(i, row)); err != nil {
			want = fmt.Errorf("sqlexec: guard: %w", err)
		}
	}
	if want == nil {
		t.Fatal("no row violates the program")
	}
	unique := withRowID(dirty)
	_, err = execBoth(t, "SELECT COUNT(*) FROM hospital", dirty, unique, guard)
	if err == nil || err.Error() != want.Error() {
		t.Errorf("raise error = %v, want %v", err, want)
	}
	_, err = execBoth(t, "SELECT floor, SUM(floor + 1) FROM hospital GROUP BY floor", dirty, unique, func() *Env { return nil })
	if err == nil || err.Error() != "sqlexec: arithmetic on non-numbers" {
		t.Errorf("string arithmetic error = %v", err)
	}
}
