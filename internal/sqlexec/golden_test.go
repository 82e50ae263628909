package sqlexec

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/errgen"
	"github.com/guardrail-db/guardrail/internal/ml"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestGroupingSemantics pins how GROUP BY keys and aggregates treat
// dictionary strings: numeric-looking strings group by their number, a
// missing cell groups with the string 'NULL', and non-numeric arguments
// to AVG/MIN/MAX/SUM are errors while COUNT counts them.
func TestGroupingSemantics(t *testing.T) {
	rel := dataset.New("t", []string{"k", "v"})
	for _, r := range [][]string{
		{"1", "3"}, {"1.0", "4"}, {"2", "5"}, {"", "6"}, {"NULL", "7"}, {"x", "8"}, {"1e0", "9"},
	} {
		rel.AppendRow(r)
	}
	res, err := Exec("SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY k", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range res.Rows {
		got = append(got, fmt.Sprintf("%v|%v|%v", row[0], row[1], row[2]))
	}
	// "1", "1.0" and "1e0" share key 1; the missing cell (rendered NULL,
	// kept as the group's first value) and 'NULL' share key NULL.
	want := []string{"1|3|16", "2|1|5", "NULL|2|13", "x|1|8"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	if !res.Rows[2][0].Null {
		t.Fatalf("NULL group's key = %#v, want the missing cell's NULL", res.Rows[2][0])
	}

	for _, fn := range []string{"AVG", "MIN", "MAX", "SUM"} {
		_, err := Exec("SELECT "+fn+"(k) FROM t", rel, nil)
		if want := "sqlexec: " + fn + " over non-numeric values"; err == nil || err.Error() != want {
			t.Errorf("%s over strings: err = %v, want %q", fn, err, want)
		}
	}
	res, err = Exec("SELECT COUNT(k), MIN(v), MAX(v) FROM t WHERE k != 'x'", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows[0]); got != "[5 3 9]" {
		t.Fatalf("COUNT/MIN/MAX = %s, want [5 3 9]", got)
	}
}

// TestCaseAggregateBits pins the exact bits of SUM and AVG over CASE
// results whose float sum depends on the order of addition.
func TestCaseAggregateBits(t *testing.T) {
	rel := dataset.New("t", []string{"g", "v"})
	for i := 0; i < 1000; i++ {
		rel.AppendRow([]string{fmt.Sprint(i % 3), fmt.Sprint(i % 7)})
	}
	res, err := Exec("SELECT g, SUM(CASE WHEN v > 3 THEN 0.1 ELSE v / 3 END) AS s, "+
		"AVG(CASE WHEN v = 2 THEN 0.7 ELSE 0.01 * v END) AS a FROM t GROUP BY g", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range res.Rows {
		got = append(got, fmt.Sprintf("%v:%016x:%016x", row[0], math.Float64bits(row[1].Num), math.Float64bits(row[2].Num)))
	}
	want := []string{
		"0:405b7dddddddddcc:3fc05a42586b6d94",
		"1:405b622222222210:3fc01c0b70749b5a",
		"2:405b533333333321:3fc062e4f857d2fb",
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("aggregate bits:\n  %v\nwant\n  %v", got, want)
	}
}

// TestGuardedQueryGolden pins the result rows and statistics of the
// guarded PREDICT query shape on a dirty PostalChain table: a rectify
// guard repairs State and Country from City before a logistic model
// trained on the table's first rows predicts Country. Regenerate with
// `go test ./internal/sqlexec -run Golden -update` only when an output
// change is intended.
func TestGuardedQueryGolden(t *testing.T) {
	rel, p, model := postalFixture(t)
	env := &Env{Models: map[string]ml.Model{"Country": model}, Guard: core.NewGuard(p, core.Rectify)}

	var b strings.Builder
	for _, q := range []string{
		"SELECT State, COUNT(*) AS n, AVG(CASE WHEN PREDICT(Country) = 'Country_v0' THEN 1 ELSE 0 END) AS m FROM t GROUP BY State",
		"SELECT City, PREDICT(Country) AS p, COUNT(*) AS n FROM t WHERE PostalCode != 'PostalCode_v3' GROUP BY City, PREDICT(Country) ORDER BY COUNT(*) DESC, City",
	} {
		res, err := Exec(q, rel, env)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "query %s\ncols %s\nscanned %d filtered %d predict_calls %d\n",
			q, strings.Join(res.Cols, " "), res.Stats.RowsScanned, res.Stats.RowsFiltered, res.Stats.PredictCalls)
		for _, row := range res.Rows {
			for i, v := range row {
				if i > 0 {
					b.WriteByte(' ')
				}
				switch {
				case v.Null:
					b.WriteString("null")
				case v.IsNum:
					fmt.Fprintf(&b, "num:%016x", math.Float64bits(v.Num))
				default:
					fmt.Fprintf(&b, "str:%q", v.Str)
				}
			}
			b.WriteByte('\n')
		}
	}
	checkGolden(t, "guarded_query.golden", b.String())
}

// postalFixture is the guarded PREDICT query's setup: a dirty
// PostalChain table, a program repairing State from City and Country from
// State, and a logistic model trained on the table's first rows that
// predicts Country.
func postalFixture(t *testing.T) (*dataset.Relation, *dsl.Program, ml.Model) {
	t.Helper()
	rel, err := bn.PostalChain(32).Sample(5000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := errgen.Inject(rel, errgen.Options{Rate: 0.05, RandomStringProb: 0.5, Seed: 12}); err != nil {
		t.Fatal(err)
	}
	rel.SetName("t")
	var prog strings.Builder
	prog.WriteString("GIVEN City ON State HAVING\n")
	for c := 0; c < 16; c++ {
		fmt.Fprintf(&prog, "  IF City = \"City_v%d\" THEN State <- \"State_v%d\";\n", c, c/2)
	}
	prog.WriteString("GIVEN State ON Country HAVING\n")
	for s := 0; s < 8; s++ {
		fmt.Fprintf(&prog, "  IF State = \"State_v%d\" THEN Country <- \"Country_v%d\";\n", s, s%2)
	}
	p, err := dsl.Parse(prog.String(), rel)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]int, 700)
	for i := range first {
		first[i] = i
	}
	model, err := ml.TrainLogistic(rel.SelectRows(first), rel.AttrIndex("Country"), ml.LogisticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rel, p, model
}

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: line %d is\n  %s\nwant\n  %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}
