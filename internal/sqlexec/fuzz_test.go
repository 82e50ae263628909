package sqlexec

import "testing"

// FuzzParse feeds arbitrary text to the SQL parser: it must never panic,
// and any accepted query must have a non-empty SELECT list and FROM table.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT a FROM t",
		"SELECT COUNT(*), AVG(x) FROM t WHERE a = 'b' GROUP BY c",
		"SELECT CASE WHEN a = 1 THEN 2 ELSE 3 END FROM t",
		"SELECT PREDICT(y) FROM t WHERE NOT a = 'x' OR b < 3",
		"SELECT a FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC LIMIT 5",
		"SELECT t.a_pred FROM t",
		"SELECT",
		"SELECT FROM",
		"SELECT a FROM t WHERE ((",
		"SELECT 'unterminated FROM t",
		"SELECT a + b * -c / 2 FROM t;",
		"\xff\xfe",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		if len(q.Select) == 0 {
			t.Fatalf("accepted query with empty SELECT: %q", src)
		}
		if q.From == "" {
			t.Fatalf("accepted query with empty FROM: %q", src)
		}
	})
}

// FuzzExec executes accepted queries against a tiny relation: the executor
// must never panic regardless of the query shape, and over the relation's
// rows repeated it must return what it returns once a row-id column makes
// every row distinct.
func FuzzExec(f *testing.F) {
	seeds := []string{
		"SELECT grp, AVG(age) FROM t GROUP BY grp",
		"SELECT COUNT(*) FROM t WHERE age > 20 AND city = 'X'",
		"SELECT SUM(age) / COUNT(*) FROM t HAVING SUM(age) > 0",
		"SELECT age FROM t ORDER BY age LIMIT 2",
		"SELECT MIN(age), MAX(age) FROM t WHERE grp != 'a'",
		"SELECT CASE WHEN age > 25 THEN 'old' ELSE 'young' END FROM t GROUP BY grp",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	dup := repeated(numbersRel(), 3, 1)
	unique := withRowID(dup)
	f.Fuzz(func(t *testing.T, src string) {
		rel := numbersRel()
		_, _ = Exec(src, rel, nil) // must not panic
		a, aErr := Exec(src, dup, nil)
		b, bErr := Exec(src, unique, nil)
		if d := sameOutcome(a, aErr, b, bErr); d != "" {
			t.Fatalf("%q: duplicated vs unique rows: %s", src, d)
		}
	})
}
