package sqlexec

import (
	"testing"

	"github.com/guardrail-db/guardrail/internal/dataset"
)

func TestHavingFiltersGroups(t *testing.T) {
	rel := numbersRel()
	res, err := Exec("SELECT grp, COUNT(*) AS n FROM t GROUP BY grp HAVING COUNT(*) > 2", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "b" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	rel := numbersRel()
	res, err := Exec("SELECT age FROM t GROUP BY age ORDER BY age DESC LIMIT 3", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	want := []float64{50, 40, 30}
	for i, w := range want {
		if !near(res.Rows[i][0].Num, w) {
			t.Fatalf("row %d = %v, want %g", i, res.Rows[i][0], w)
		}
	}
	// Ascending is the default.
	asc, err := Exec("SELECT age FROM t GROUP BY age ORDER BY age LIMIT 1", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !near(asc.Rows[0][0].Num, 10) {
		t.Fatalf("asc first = %v", asc.Rows[0][0])
	}
}

func TestOrderByAggregateMultiKey(t *testing.T) {
	rel := numbersRel()
	res, err := Exec("SELECT grp, AVG(age) AS a FROM t GROUP BY grp ORDER BY AVG(age) DESC, grp ASC", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str != "b" || res.Rows[1][0].Str != "a" {
		t.Fatalf("order = %v", res.Rows)
	}
}

func TestLimitZeroAndParseErrors(t *testing.T) {
	rel := numbersRel()
	res, err := Exec("SELECT age FROM t LIMIT 0", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned rows: %v", res.Rows)
	}
	for _, q := range []string{
		"SELECT age FROM t LIMIT x",
		"SELECT age FROM t ORDER age",
		"SELECT age FROM t HAVING",
	} {
		if _, err := Exec(q, rel, nil); err == nil {
			t.Fatalf("no error for %q", q)
		}
	}
}

func TestCompareValues(t *testing.T) {
	if compareValues(NullValue, NumValue(1)) >= 0 {
		t.Fatal("NULL should sort first")
	}
	if compareValues(NumValue(2), NumValue(1)) <= 0 {
		t.Fatal("numeric compare wrong")
	}
	if compareValues(StrValue("a"), StrValue("b")) >= 0 {
		t.Fatal("string compare wrong")
	}
	if compareValues(NullValue, NullValue) != 0 {
		t.Fatal("NULL != NULL")
	}
}

func patientsAndWards() *Catalog {
	patients := dataset.New("patients", []string{"pid", "ward", "age"})
	patients.AppendRow([]string{"p1", "w1", "30"})
	patients.AppendRow([]string{"p2", "w1", "40"})
	patients.AppendRow([]string{"p3", "w2", "50"})
	patients.AppendRow([]string{"p4", "w9", "60"}) // no matching ward
	wards := dataset.New("wards", []string{"wid", "floor"})
	wards.AppendRow([]string{"w1", "f1"})
	wards.AppendRow([]string{"w2", "f2"})
	c := NewCatalog()
	c.Register("patients", patients)
	c.Register("wards", wards)
	return c
}

func TestCatalogExecAndLookup(t *testing.T) {
	c := patientsAndWards()
	res, err := c.Exec("SELECT COUNT(*) FROM patients", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Rows[0][0].Num, 4) {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	if _, err := c.Exec("SELECT 1 FROM missing", nil); err == nil {
		t.Fatal("missing table accepted")
	}
	if got := c.Names(); len(got) != 2 || got[0] != "patients" {
		t.Fatalf("names = %v", got)
	}
}

func TestMaterializeJoin(t *testing.T) {
	c := patientsAndWards()
	joined, err := c.MaterializeJoin("pw", "patients", "wards", "ward", "wid")
	if err != nil {
		t.Fatal(err)
	}
	if joined.NumRows() != 3 {
		t.Fatalf("join rows = %d, want 3 (inner join)", joined.NumRows())
	}
	// Query the materialized join like any table.
	res, err := c.Exec("SELECT floor, AVG(age) AS a FROM pw GROUP BY floor ORDER BY floor", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || !near(res.Rows[0][1].Num, 35) || !near(res.Rows[1][1].Num, 50) {
		t.Fatalf("join query = %v", res.Rows)
	}
	// Error paths.
	if _, err := c.MaterializeJoin("x", "nope", "wards", "ward", "wid"); err == nil {
		t.Fatal("missing left table accepted")
	}
	if _, err := c.MaterializeJoin("x", "patients", "wards", "nope", "wid"); err == nil {
		t.Fatal("missing key accepted")
	}
}

func TestMaterializeJoinColumnCollision(t *testing.T) {
	c := NewCatalog()
	a := dataset.New("a", []string{"k", "v"})
	a.AppendRow([]string{"1", "x"})
	b := dataset.New("b", []string{"k", "v"})
	b.AppendRow([]string{"1", "y"})
	c.Register("a", a)
	c.Register("b", b)
	joined, err := c.MaterializeJoin("ab", "a", "b", "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	if joined.AttrIndex("right_v") < 0 {
		t.Fatalf("collision not renamed: %v", joined.Attrs())
	}
	if joined.Value(0, joined.AttrIndex("right_v")) != "y" {
		t.Fatal("right value lost")
	}
}

func TestPlainSelectProjectsPerRow(t *testing.T) {
	rel := numbersRel()
	res, err := Exec("SELECT age FROM t", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != rel.NumRows() {
		t.Fatalf("rows = %d, want %d", len(res.Rows), rel.NumRows())
	}
}

func TestSelectDistinct(t *testing.T) {
	rel := numbersRel()
	res, err := Exec("SELECT DISTINCT city FROM t", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("distinct rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}
	res, err = Exec("SELECT DISTINCT grp, city FROM t ORDER BY grp, city", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("distinct pairs = %d, want 4", len(res.Rows))
	}
}

func TestInList(t *testing.T) {
	rel := numbersRel()
	res, err := Exec("SELECT COUNT(*) FROM t WHERE age IN (10, 30, 50)", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Rows[0][0].Num, 3) {
		t.Fatalf("IN count = %v", res.Rows[0][0])
	}
	res, err = Exec("SELECT COUNT(*) FROM t WHERE city NOT IN ('Y')", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Rows[0][0].Num, 3) {
		t.Fatalf("NOT IN count = %v", res.Rows[0][0])
	}
	if _, err := Exec("SELECT COUNT(*) FROM t WHERE age IN 10", rel, nil); err == nil {
		t.Fatal("IN without parens accepted")
	}
	if _, err := Exec("SELECT COUNT(*) FROM t WHERE age IN (10", rel, nil); err == nil {
		t.Fatal("unclosed IN list accepted")
	}
}
