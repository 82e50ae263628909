package analysis

import (
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
)

// verifyRel builds a small relation: a,b,c,d each with 3 values "0","1","2".
func verifyRel(t *testing.T) *dataset.Relation {
	t.Helper()
	rel := dataset.New("t", []string{"a", "b", "c", "d"})
	for _, row := range [][]string{
		{"0", "0", "0", "0"},
		{"1", "1", "1", "1"},
		{"2", "2", "2", "2"},
	} {
		rel.AppendRow(row)
	}
	return rel
}

func branch(val int32, pairs ...int32) dsl.Branch {
	var c dsl.Condition
	for i := 0; i+1 < len(pairs); i += 2 {
		c = append(c, dsl.Pred{Attr: int(pairs[i]), Value: pairs[i+1]})
	}
	return dsl.Branch{Cond: c, Value: val}
}

func TestDiagnostics(t *testing.T) {
	cases := []struct {
		name      string
		prog      *dsl.Program
		wantClass Class
		wantSev   Severity
		// wantStmt/wantBranch anchor the first finding of wantClass.
		wantStmt   int
		wantBranch int
	}{
		{
			name: "contradiction: equal conditions conflicting THEN",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0}, On: 1,
				Branches: []dsl.Branch{
					branch(0, 0, 0),
					branch(1, 0, 0), // same condition a=0, assigns 1 instead of 0
				},
			}}},
			wantClass: Contradiction, wantSev: Error, wantStmt: 0, wantBranch: 1,
		},
		{
			name: "contradiction: more specific later branch shadowed with different value",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0, 2}, On: 1,
				Branches: []dsl.Branch{
					branch(0, 0, 0),
					branch(1, 0, 0, 2, 1), // implies a=0, conflicting assignment
				},
			}}},
			wantClass: Contradiction, wantSev: Error, wantStmt: 0, wantBranch: 1,
		},
		{
			name: "unreachable: duplicate branch same value",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0}, On: 1,
				Branches: []dsl.Branch{
					branch(0, 0, 0),
					branch(0, 0, 0),
				},
			}}},
			wantClass: Unreachable, wantSev: Warning, wantStmt: 0, wantBranch: 1,
		},
		{
			name: "unreachable: unsatisfiable condition",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0}, On: 1,
				Branches: []dsl.Branch{
					branch(0, 0, 0, 0, 1), // a=0 AND a=1
					branch(1, 0, 2),
				},
			}}},
			wantClass: Unreachable, wantSev: Error, wantStmt: 0, wantBranch: 0,
		},
		{
			name: "self-dependency: ON inside GIVEN",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0, 1}, On: 1,
				Branches: []dsl.Branch{branch(0, 0, 0)},
			}}},
			wantClass: SelfDependency, wantSev: Error, wantStmt: 0, wantBranch: -1,
		},
		{
			name: "self-dependency: condition tests ON",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0}, On: 1,
				Branches: []dsl.Branch{branch(0, 1, 2)}, // IF b=2 THEN b<-0
			}}},
			wantClass: SelfDependency, wantSev: Error, wantStmt: 0, wantBranch: 0,
		},
		{
			name: "cycle: a determines b, b determines a",
			prog: &dsl.Program{Stmts: []dsl.Statement{
				{Given: []int{0}, On: 1, Branches: []dsl.Branch{branch(0, 0, 0)}},
				{Given: []int{1}, On: 0, Branches: []dsl.Branch{branch(0, 1, 0)}},
			}},
			wantClass: Cycle, wantSev: Warning, wantStmt: 0, wantBranch: -1,
		},
		{
			name: "domain violation: literal outside dictionary",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0}, On: 1,
				Branches: []dsl.Branch{branch(9, 0, 0)}, // THEN b <- code 9, card 3
			}}},
			wantClass: DomainViolation, wantSev: Error, wantStmt: 0, wantBranch: 0,
		},
		{
			name: "domain violation: condition literal outside dictionary",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0}, On: 1,
				Branches: []dsl.Branch{branch(0, 0, 77)},
			}}},
			wantClass: DomainViolation, wantSev: Error, wantStmt: 0, wantBranch: 0,
		},
		{
			name: "dead statement: no branches",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0}, On: 1,
			}}},
			wantClass: DeadStatement, wantSev: Error, wantStmt: 0, wantBranch: -1,
		},
		{
			name: "dead statement: every branch unreachable",
			prog: &dsl.Program{Stmts: []dsl.Statement{{
				Given: []int{0}, On: 1,
				Branches: []dsl.Branch{
					branch(0, 0, 0, 0, 1), // unsatisfiable
					branch(1, 0, 2, 0, 1), // unsatisfiable
				},
			}}},
			wantClass: DeadStatement, wantSev: Error, wantStmt: 0, wantBranch: -1,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rel := verifyRel(t)
			fs := Verify(tc.prog, rel)
			var hit *Finding
			for i := range fs {
				if fs[i].Class == tc.wantClass {
					hit = &fs[i]
					break
				}
			}
			if hit == nil {
				t.Fatalf("no %v finding; got %v", tc.wantClass, fs)
			}
			if hit.Severity != tc.wantSev {
				t.Errorf("severity = %v, want %v (%s)", hit.Severity, tc.wantSev, hit)
			}
			if hit.Stmt != tc.wantStmt || hit.Branch != tc.wantBranch {
				t.Errorf("location = stmt %d branch %d, want stmt %d branch %d (%s)",
					hit.Stmt, hit.Branch, tc.wantStmt, tc.wantBranch, hit)
			}
			if hit.Message == "" {
				t.Error("finding has empty message")
			}
		})
	}
}

func TestCleanProgramHasNoFindings(t *testing.T) {
	rel := verifyRel(t)
	prog := &dsl.Program{Stmts: []dsl.Statement{
		{Given: []int{0}, On: 1, Branches: []dsl.Branch{
			branch(0, 0, 0), branch(1, 0, 1), branch(2, 0, 2),
		}},
		{Given: []int{1, 2}, On: 3, Branches: []dsl.Branch{
			branch(0, 1, 0, 2, 0), branch(1, 1, 1, 2, 1),
		}},
	}}
	if fs := Verify(prog, rel); len(fs) != 0 {
		t.Fatalf("clean program produced findings: %v", fs)
	}
}

func TestFindingsUseSurfaceNames(t *testing.T) {
	rel := verifyRel(t)
	prog := &dsl.Program{Stmts: []dsl.Statement{{
		Given: []int{0}, On: 1,
		Branches: []dsl.Branch{branch(0, 0, 0), branch(1, 0, 0)},
	}}}
	fs := Verify(prog, rel)
	if len(fs) == 0 {
		t.Fatal("expected findings")
	}
	joined := ""
	for _, f := range fs {
		joined += f.String() + "\n"
	}
	for _, want := range []string{"IF a =", "b <-", "[contradiction]"} {
		if !strings.Contains(joined, want) {
			t.Errorf("rendered findings missing %q:\n%s", want, joined)
		}
	}
}

func TestNilRelFallsBackToPositionalNames(t *testing.T) {
	prog := &dsl.Program{Stmts: []dsl.Statement{{
		Given: []int{0}, On: 1,
		Branches: []dsl.Branch{branch(0, 0, 0), branch(1, 0, 0)},
	}}}
	fs := Verify(prog, nil)
	if !HasErrors(fs) {
		t.Fatalf("contradiction not found without rel: %v", fs)
	}
	found := false
	for _, f := range fs {
		if strings.Contains(f.Message, "attr#") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected positional attr names in %v", fs)
	}
}

func TestHasErrors(t *testing.T) {
	if HasErrors(nil) {
		t.Error("empty findings should have no errors")
	}
	if HasErrors([]Finding{{Severity: Warning}}) {
		t.Error("warnings alone are not errors")
	}
	if !HasErrors([]Finding{{Severity: Warning}, {Severity: Error}}) {
		t.Error("error finding not detected")
	}
}

// TestFindingStringLocation: statement-less findings (lint's CLI-level
// domain-growth warning) render without a location.
func TestFindingStringLocation(t *testing.T) {
	for _, tc := range []struct {
		f    Finding
		want string
	}{
		{Finding{Class: DomainViolation, Severity: Warning, Stmt: -1, Branch: -1, Message: "m"},
			"warning [domain-violation]: m"},
		{Finding{Class: DeadStatement, Severity: Error, Stmt: 2, Branch: -1, Message: "m"},
			"error stmt 2 [dead-statement]: m"},
		{Finding{Class: DeadBranch, Severity: Info, Stmt: 0, Branch: 3, Message: "m"},
			"info stmt 0 branch 3 [dead-branch]: m"},
	} {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestThreeStatementCycle exercises cycle detection beyond the pairwise case.
func TestThreeStatementCycle(t *testing.T) {
	rel := verifyRel(t)
	prog := &dsl.Program{Stmts: []dsl.Statement{
		{Given: []int{0}, On: 1, Branches: []dsl.Branch{branch(0, 0, 0)}},
		{Given: []int{1}, On: 2, Branches: []dsl.Branch{branch(0, 1, 0)}},
		{Given: []int{2}, On: 0, Branches: []dsl.Branch{branch(0, 2, 0)}},
	}}
	fs := Verify(prog, rel)
	cycles := 0
	for _, f := range fs {
		if f.Class == Cycle {
			cycles++
			if !strings.Contains(f.Message, "a -> b -> c -> a") {
				t.Errorf("unexpected cycle chain: %s", f.Message)
			}
		}
	}
	if cycles != 1 {
		t.Fatalf("want exactly 1 cycle finding, got %d: %v", cycles, fs)
	}
}

// TestAcyclicChainHasNoCycleFinding: a -> b -> c is a chain, not a cycle.
func TestAcyclicChainHasNoCycleFinding(t *testing.T) {
	rel := verifyRel(t)
	prog := &dsl.Program{Stmts: []dsl.Statement{
		{Given: []int{0}, On: 1, Branches: []dsl.Branch{branch(0, 0, 0)}},
		{Given: []int{1}, On: 2, Branches: []dsl.Branch{branch(0, 1, 0)}},
	}}
	for _, f := range Verify(prog, rel) {
		if f.Class == Cycle {
			t.Fatalf("chain flagged as cycle: %s", f)
		}
	}
}

// FuzzVerify decodes arbitrary bytes into a program (mirroring the grammar
// the way dsl.FuzzParse mirrors the surface syntax) and asserts the
// verifier never panics and anchors every finding inside the program —
// even on programs whose indices stray outside the schema — and that its
// Error verdict is the OR of the per-statement verdicts.
func FuzzVerify(f *testing.F) {
	f.Add([]byte{1, 1, 0, 1, 1, 0, 0})
	f.Add([]byte{2, 1, 0, 1, 2, 0, 0, 1, 0, 0, 1, 1, 1, 0, 2, 1, 1, 0})
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 9, 0, 200, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeProgram(data)
		rel := dataset.New("t", []string{"a", "b", "c", "d"})
		rel.AppendRow([]string{"0", "0", "0", "0"})
		rel.AppendRow([]string{"1", "1", "1", "1"})

		for _, r := range []*dataset.Relation{rel, nil} {
			checkStatementErrors(t, prog, r)
			fs := Verify(prog, r)
			for _, fd := range fs {
				if fd.Stmt < 0 || fd.Stmt >= len(prog.Stmts) {
					t.Fatalf("finding outside program: %+v (program has %d stmts)", fd, len(prog.Stmts))
				}
				if fd.Branch >= len(prog.Stmts[fd.Stmt].Branches) {
					t.Fatalf("finding outside statement: %+v", fd)
				}
				if fd.Message == "" {
					t.Fatalf("empty message: %+v", fd)
				}
			}
		}
	})
}

// decodeProgram deterministically maps bytes to a program. Attribute and
// literal values are taken modulo a range slightly larger than the test
// schema so out-of-domain indices are exercised too.
func decodeProgram(data []byte) *dsl.Program {
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		v := int(data[i])
		i++
		return v
	}
	prog := &dsl.Program{}
	nStmts := next() % 5
	for s := 0; s < nStmts; s++ {
		var st dsl.Statement
		nGiven := next() % 4
		for g := 0; g < nGiven; g++ {
			st.Given = append(st.Given, next()%6-1)
		}
		st.On = next()%6 - 1
		nBranches := next() % 5
		for b := 0; b < nBranches; b++ {
			var br dsl.Branch
			nAtoms := next() % 4
			for a := 0; a < nAtoms; a++ {
				br.Cond = append(br.Cond, dsl.Pred{
					Attr:  next()%6 - 1,
					Value: int32(next()%5 - 2),
				})
			}
			br.Value = int32(next()%5 - 2)
			st.Branches = append(st.Branches, br)
		}
		prog.Stmts = append(prog.Stmts, st)
	}
	return prog
}
