package analysis

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/smt/sat"
)

// checkStatementErrors asserts the premise the synthesizer's per-statement
// verifier gate rests on: Verify raises an Error on p exactly when some
// statement of p does on its own, and the cross-statement cycle check
// never raises one.
// It returns the verdict.
func checkStatementErrors(t *testing.T, p *dsl.Program, rel *dataset.Relation) bool {
	t.Helper()
	fs := Verify(p, rel)
	some := false
	for i := range p.Stmts {
		some = some || StatementHasErrors(&p.Stmts[i], rel)
	}
	if got := HasErrors(fs); got != some {
		t.Fatalf("HasErrors(Verify) = %v, OR of StatementHasErrors = %v for %+v", got, some, p)
	}
	for _, f := range fs {
		if f.Class == Cycle && f.Severity != Warning {
			t.Fatalf("cycle finding with severity %v: %+v", f.Severity, f)
		}
	}
	return some
}

// checkFragments asserts that when every statement of p is within dom,
// Canon(p, dom) is the concatenation of the statements' fragments, each
// over its own solver on dom, and spends the same solver calls.
func checkFragments(t *testing.T, p *dsl.Program, dom sat.Domains) {
	t.Helper()
	var b strings.Builder
	var calls int64
	for _, st := range p.Stmts {
		if !WithinDomains(st, dom) {
			return
		}
		s := sat.NewSolver(dom)
		b.WriteString(CanonStatement(s, st))
		calls += s.Calls()
	}
	want, wantCalls := Canon(p, dom)
	if b.String() != want || calls != wantCalls {
		t.Fatalf("fragments %q (%d calls), Canon %q (%d calls) for %+v", b.String(), calls, want, wantCalls, p)
	}
}

func randomBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func TestStatementHasErrorsMatchesVerify(t *testing.T) {
	rel := verifyRel(t)
	r := rand.New(rand.NewSource(1))
	verdicts := map[bool]int{}
	for i := 0; i < 3000; i++ {
		p := decodeProgram(randomBytes(r, 40))
		verdicts[checkStatementErrors(t, p, rel)]++
		checkStatementErrors(t, p, nil)
	}
	if verdicts[true] < 100 || verdicts[false] < 100 {
		t.Fatalf("verdicts %v: the sweep needs both outcomes", verdicts)
	}
}

func TestStatementHasErrorsOnCycle(t *testing.T) {
	// Two clean statements forming a cycle: Verify warns, never errors.
	p := &dsl.Program{Stmts: []dsl.Statement{
		{Given: []int{0}, On: 1, Branches: []dsl.Branch{branch(0, 0, 0)}},
		{Given: []int{1}, On: 0, Branches: []dsl.Branch{branch(0, 1, 0)}},
	}}
	if find(Verify(p, verifyRel(t)), Cycle, 0, -1) == nil {
		t.Fatal("expected a cycle finding")
	}
	checkStatementErrors(t, p, verifyRel(t))
}

func TestCanonStatementFragments(t *testing.T) {
	dom := sat.Domains{2, 3, 2, 0} // attribute 3 unbounded
	r := rand.New(rand.NewSource(2))
	within := 0
	for i := 0; i < 3000; i++ {
		p := decodeProgram(randomBytes(r, 40))
		checkFragments(t, p, dom)
		all := true
		for _, st := range p.Stmts {
			all = all && WithinDomains(st, dom)
		}
		if all && len(p.Stmts) > 0 {
			within++
		}
	}
	if within < 100 {
		t.Fatalf("only %d of the generated programs are within the domains; the sweep tests too little", within)
	}
}

func TestWithinDomains(t *testing.T) {
	dom := sat.Domains{2, 3, 0}
	for _, c := range []struct {
		st   dsl.Statement
		want bool
	}{
		{dsl.Statement{On: 1, Branches: []dsl.Branch{{Cond: cond(0, 1), Value: 2}}}, true},
		{dsl.Statement{On: 1, Branches: []dsl.Branch{{Cond: cond(0, 2), Value: 0}}}, false},             // IF literal at the cardinality
		{dsl.Statement{On: 1, Branches: []dsl.Branch{{Cond: cond(0, 0), Value: 3}}}, false},             // THEN literal at the cardinality
		{dsl.Statement{On: 1, Branches: []dsl.Branch{{Cond: cond(2, 99), Value: 0}}}, true},             // unbounded attribute
		{dsl.Statement{On: 4, Branches: []dsl.Branch{{Cond: cond(0, -1), Value: 7}}}, true},             // Missing, and an attribute beyond dom
		{dsl.Statement{On: 1, Branches: []dsl.Branch{{Value: 0}, {Cond: cond(1, 5), Value: 0}}}, false}, // second branch
	} {
		if got := WithinDomains(c.st, dom); got != c.want {
			t.Errorf("WithinDomains(%+v) = %v, want %v", c.st, got, c.want)
		}
		// The bit is exactly "widening keeps dom's cardinalities".
		w := widen(dom, &dsl.Program{Stmts: []dsl.Statement{c.st}})
		same := true
		for a := range w {
			same = same && w.Card(a) == dom.Card(a)
		}
		if same != c.want {
			t.Errorf("widen of %+v keeps dom = %v, want %v", c.st, same, c.want)
		}
	}
}
