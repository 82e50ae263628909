// Package analysis is Guardrail's program-diagnostics package: every
// static check over DSL programs, built on the finite-domain solver in
// internal/smt/sat, reports through the one Finding type defined here.
//
// Two entry points share that vocabulary. Verify is the gate the
// synthesizer applies to every filled sketch before coverage scoring and
// the check behind `guardrail lint`: it reasons about single conjunctions
// without domain bounds, flagging contradictory or shadowed branches,
// self-dependencies, cyclic determinant chains, out-of-dictionary
// literals and dead statements — degenerate fills that would silently
// weaken the runtime guardrail. Program runs the domain- and
// disjunction-aware passes behind `guardrail analyze`: a branch can be
// dead because the *union* of earlier guards covers it, a statement's
// guards can be exhaustive over the observed value domain, one statement
// can semantically contain another, and two statements can force
// different values onto the same satisfiable region. The same machinery
// yields a whole-program semantic fingerprint (equal fingerprints imply
// equivalent programs) that the synthesizer uses to dedupe candidate
// programs before coverage scoring, and a semantics-preserving minimizer
// whose output is re-proved equivalent by independent solver queries.
// Messages are rendered through internal/dsl/text.go so findings read in
// the paper's surface syntax.
package analysis

import (
	"encoding/json"
	"fmt"
	"sort"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/smt/sat"
)

// Severity grades a finding.
type Severity int

const (
	// Info marks structural facts worth surfacing that are not defects
	// (exhaustive branch guards).
	Info Severity = iota
	// Warning marks redundancy or suspicious structure that does not
	// change runtime behavior (shadowed or duplicate branches, subsumed
	// statements, cyclic determinant chains).
	Warning
	// Error marks semantic defects that make the program untrustworthy as
	// a guardrail (unsatisfiable guards, contradictions, domain
	// violations, dead statements).
	Error
)

func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	}
	return "info"
}

// MarshalJSON renders the severity as its string name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Class identifies the diagnostic. The first four classes come from
// Program's passes, the rest from Verify; findings sort by class within a
// location, so the order below is part of the output contract.
type Class int

const (
	// DeadBranch: a branch that can never fire — its guard is
	// unsatisfiable over the row universe, or the union of earlier guards
	// covers its entire region (first match wins).
	DeadBranch Class = iota
	// ExhaustiveGuards: a statement whose branch guards cover every
	// fully-observed row of the value domain, so the statement always
	// fires on complete rows.
	ExhaustiveGuards
	// SubsumedStatement: a statement semantically contained in another
	// with the same dependent attribute — wherever it fires, the other
	// fires and assigns the same value.
	SubsumedStatement
	// StatementContradiction: two statements with the same dependent
	// attribute that assign different values on a satisfiable region
	// overlap, guaranteeing a violation on every such row.
	StatementContradiction
	// Contradiction: a branch whose condition is subsumed by an earlier
	// branch of the same statement but assigns a different value — the
	// later branch can never take effect and disagrees with the one that
	// shadows it.
	Contradiction
	// Unreachable: a branch that can never fire — its condition is
	// unsatisfiable, or an earlier branch with the same assignment already
	// matches every row it would match (subsumption).
	Unreachable
	// SelfDependency: a statement whose dependent attribute appears in its
	// own GIVEN set or is tested by one of its branch conditions.
	SelfDependency
	// Cycle: statements whose determinant chains form a directed cycle
	// (a determines b, b determines a), making rectification order-sensitive.
	Cycle
	// DomainViolation: an attribute index or literal code outside the
	// dataset dictionary, a condition atom on an attribute outside GIVEN,
	// or a branch asserting missingness.
	DomainViolation
	// DeadStatement: a statement with no branches, or whose every branch is
	// unreachable.
	DeadStatement
)

func (c Class) String() string {
	switch c {
	case DeadBranch:
		return "dead-branch"
	case ExhaustiveGuards:
		return "exhaustive-guards"
	case SubsumedStatement:
		return "subsumed-statement"
	case StatementContradiction:
		return "statement-contradiction"
	case Contradiction:
		return "contradiction"
	case Unreachable:
		return "unreachable"
	case SelfDependency:
		return "self-dependency"
	case Cycle:
		return "cycle"
	case DomainViolation:
		return "domain-violation"
	case DeadStatement:
		return "dead-statement"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// MarshalJSON renders the class as its string name.
func (c Class) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// Finding is one diagnostic with its location inside the program.
type Finding struct {
	Class    Class    `json:"class"`
	Severity Severity `json:"severity"`
	// Stmt is the statement index within the program, or -1 for findings
	// about the program as a whole.
	Stmt int `json:"stmt"`
	// Branch is the branch index within the statement, or -1 for
	// statement-level findings.
	Branch int `json:"branch"`
	// Other is the index of the related branch (DeadBranch, Contradiction,
	// Unreachable) or statement (SubsumedStatement, StatementContradiction,
	// Cycle), or -1.
	Other int `json:"other"`
	// Message is the human-readable diagnosis in the surface syntax.
	Message string `json:"message"`
}

// String renders the finding as "severity stmt 2 branch 1 [class]: message",
// or "severity [class]: message" when it has no statement.
func (f Finding) String() string {
	if f.Stmt < 0 {
		return fmt.Sprintf("%s [%s]: %s", f.Severity, f.Class, f.Message)
	}
	loc := fmt.Sprintf("stmt %d", f.Stmt)
	if f.Branch >= 0 {
		loc += fmt.Sprintf(" branch %d", f.Branch)
	}
	return fmt.Sprintf("%s %s [%s]: %s", f.Severity, loc, f.Class, f.Message)
}

// HasErrors reports whether any finding is Error-severity.
func HasErrors(fs []Finding) bool {
	for _, f := range fs {
		if f.Severity == Error {
			return true
		}
	}
	return false
}

// sortFindings orders findings by statement, then branch, then class,
// keeping emission order among equals.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Stmt != b.Stmt {
			return a.Stmt < b.Stmt
		}
		if a.Branch != b.Branch {
			return a.Branch < b.Branch
		}
		return a.Class < b.Class
	})
}

// Report is the result of running every analysis pass over one program.
type Report struct {
	Findings []Finding
	// Canon is the canonical semantic form of the program; equal canonical
	// forms imply semantically equivalent programs. Fingerprint is its
	// 64-bit FNV-1a hash, for compact reporting.
	Canon       string
	Fingerprint uint64
	// Minimized is the program with dead branches and no-op statements
	// removed; MinimizeProved reports that the minimizer's output was
	// independently re-proved equivalent to the input (solver queries
	// plus, when the relation is available, row-by-row execution).
	Minimized       *dsl.Program
	MinimizeProved  bool
	BranchesRemoved int
	StmtsRemoved    int
	// SolverCalls counts the core satisfiability queries the passes ran —
	// the analysis.solver_calls metric.
	SolverCalls int64
}

// Program runs every analysis pass over p. rel supplies per-attribute
// domain cardinalities (nil leaves every domain unbounded, which disables
// union-exhaustiveness reasoning) and attribute/literal names for
// messages. Findings are ordered by statement, then branch, then class.
func Program(p *dsl.Program, rel *dataset.Relation) *Report {
	rpt := &Report{}
	if p == nil {
		return rpt
	}
	dom := sat.DomainsOf(rel)
	s := sat.NewSolver(dom)       // runtime universe: dictionary codes plus Missing
	vs := sat.NewValueSolver(dom) // observed values only, for exhaustiveness

	live := make([][]bool, len(p.Stmts))
	for si := range p.Stmts {
		st := p.Stmts[si]
		live[si] = make([]bool, len(st.Branches))
		for bi, b := range st.Branches {
			if !s.SatisfiableCond(b.Cond) {
				rpt.Findings = append(rpt.Findings, Finding{
					Class: DeadBranch, Severity: Error, Stmt: si, Branch: bi, Other: -1,
					Message: fmt.Sprintf("guard %s is unsatisfiable over the row universe",
						dsl.FormatCondition(b.Cond, rel)),
				})
				continue
			}
			if !s.SatMinus(b.Cond, guardsUpto(st, bi)) {
				// Prefer naming a single shadowing branch; fall back to the
				// union when no individual earlier guard implies this one.
				other := -1
				for ei := 0; ei < bi; ei++ {
					if live[si][ei] && s.ImpliesCond(b.Cond, st.Branches[ei].Cond) {
						other = ei
						break
					}
				}
				msg := fmt.Sprintf("guard %s is covered by the union of earlier guards and never fires",
					dsl.FormatCondition(b.Cond, rel))
				if other >= 0 {
					msg = fmt.Sprintf("guard %s is shadowed by branch %d and never fires",
						dsl.FormatCondition(b.Cond, rel), other)
				}
				rpt.Findings = append(rpt.Findings, Finding{
					Class: DeadBranch, Severity: Warning, Stmt: si, Branch: bi, Other: other,
					Message: msg,
				})
				continue
			}
			live[si][bi] = true
		}
		if len(st.Branches) > 0 && vs.Exhaustive(guardsUpto(st, len(st.Branches))) {
			rpt.Findings = append(rpt.Findings, Finding{
				Class: ExhaustiveGuards, Severity: Info, Stmt: si, Branch: -1, Other: -1,
				Message: fmt.Sprintf("branch guards cover every fully-observed row, so %s is always constrained",
					dsl.AttrName(st.On, rel)),
			})
		}
	}

	// Cross-statement passes over pairs sharing a dependent attribute.
	for i := range p.Stmts {
		for j := i + 1; j < len(p.Stmts); j++ {
			a, b := p.Stmts[i], p.Stmts[j]
			if a.On != b.On {
				continue
			}
			if f, found := contradiction(s, i, a, live[i], j, b, live[j], rel); found {
				rpt.Findings = append(rpt.Findings, f)
				continue // contradictory statements cannot subsume each other
			}
			fwd := hasLive(live[j]) && subsumes(s, a, live[i], b, live[j])
			back := hasLive(live[i]) && subsumes(s, b, live[j], a, live[i])
			switch {
			case fwd && back:
				rpt.Findings = append(rpt.Findings, Finding{
					Class: SubsumedStatement, Severity: Warning, Stmt: j, Branch: -1, Other: i,
					Message: fmt.Sprintf("statement is semantically equivalent to statement %d (same value on every row it fires on)", i),
				})
			case fwd:
				rpt.Findings = append(rpt.Findings, Finding{
					Class: SubsumedStatement, Severity: Warning, Stmt: j, Branch: -1, Other: i,
					Message: fmt.Sprintf("statement is semantically contained in statement %d: wherever it fires, statement %d assigns the same value", i, i),
				})
			case back:
				rpt.Findings = append(rpt.Findings, Finding{
					Class: SubsumedStatement, Severity: Warning, Stmt: i, Branch: -1, Other: j,
					Message: fmt.Sprintf("statement is semantically contained in statement %d: wherever it fires, statement %d assigns the same value", j, j),
				})
			}
		}
	}

	sortFindings(rpt.Findings)

	canon, canonCalls := Canon(p, dom)
	rpt.Canon = canon
	rpt.Fingerprint = Fingerprint(canon)

	min, proved, minCalls := Minimize(p, dom)
	rpt.Minimized = min
	rpt.MinimizeProved = proved
	rpt.BranchesRemoved = p.NumBranches() - min.NumBranches()
	rpt.StmtsRemoved = len(p.Stmts) - len(min.Stmts)
	// Second, independent opinion when the dataset is at hand and the
	// program is executable over it: replay every row through both
	// programs.
	if proved && rel != nil && p.Validate(rel) == nil {
		rpt.MinimizeProved = dsl.Equivalent(p, min, rel)
	}

	rpt.SolverCalls = s.Calls() + vs.Calls() + canonCalls + minCalls
	return rpt
}

// guardsUpto collects the guards of branches [0, k) of st as a DNF — the
// union of conditions an earlier branch would have matched first.
func guardsUpto(st dsl.Statement, k int) sat.DNF {
	g := make(sat.DNF, 0, k)
	for i := 0; i < k; i++ {
		g = append(g, st.Branches[i].Cond)
	}
	return g
}

// LiveMask marks each branch of st whose region (guard minus the union of
// earlier guards) contains at least one row of s's universe. Exported for
// the compiler's dead-branch pass, which must agree exactly with the
// analyzer's notion of liveness.
func LiveMask(s *sat.Solver, st dsl.Statement) []bool { return liveMask(s, st) }

// StatementSubsumes reports a ⊒ b over s's universe: on every row where
// some branch of b fires, some branch of a fires and assigns the same
// value. Exported for the compiler's subsumption pass and its independent
// re-proof during translation validation.
func StatementSubsumes(s *sat.Solver, a, b dsl.Statement) bool {
	return subsumes(s, a, liveMask(s, a), b, liveMask(s, b))
}

// liveMask marks each branch of st whose region (guard minus the union of
// earlier guards) contains at least one universe row.
func liveMask(s *sat.Solver, st dsl.Statement) []bool {
	live := make([]bool, len(st.Branches))
	for bi, b := range st.Branches {
		live[bi] = s.SatMinus(b.Cond, guardsUpto(st, bi))
	}
	return live
}

func hasLive(mask []bool) bool {
	for _, l := range mask {
		if l {
			return true
		}
	}
	return false
}

// subsumes reports a ⊒ b: on every universe row where some branch of b
// fires, some branch of a fires and assigns the same value. Each live
// branch of b must have its region covered by a's guard union, and must
// not overlap any region of a that assigns a different value.
func subsumes(s *sat.Solver, a dsl.Statement, liveA []bool, b dsl.Statement, liveB []bool) bool {
	allA := guardsUpto(a, len(a.Branches))
	for bk, bb := range b.Branches {
		if !liveB[bk] {
			continue
		}
		earlierB := guardsUpto(b, bk)
		if s.SatMinus(bb.Cond, earlierB, allA) {
			return false // some row of b's region escapes a entirely
		}
		for al, ab := range a.Branches {
			if !liveA[al] || ab.Value == bb.Value {
				continue
			}
			both := make(dsl.Condition, 0, len(bb.Cond)+len(ab.Cond))
			both = append(both, bb.Cond...)
			both = append(both, ab.Cond...)
			if s.SatMinus(both, earlierB, guardsUpto(a, al)) {
				return false // regions overlap but values disagree
			}
		}
	}
	return true
}

// contradiction looks for a pair of live branches (one per statement)
// that assign different values on overlapping regions, which guarantees
// a violation on every row of the overlap.
func contradiction(s *sat.Solver, i int, a dsl.Statement, liveA []bool, j int, b dsl.Statement, liveB []bool, rel *dataset.Relation) (Finding, bool) {
	for bk, bb := range b.Branches {
		if !liveB[bk] {
			continue
		}
		for al, ab := range a.Branches {
			if !liveA[al] || ab.Value == bb.Value {
				continue
			}
			both := make(dsl.Condition, 0, len(bb.Cond)+len(ab.Cond))
			both = append(both, bb.Cond...)
			both = append(both, ab.Cond...)
			if s.SatMinus(both, guardsUpto(b, bk), guardsUpto(a, al)) {
				return Finding{
					Class: StatementContradiction, Severity: Error, Stmt: j, Branch: bk, Other: i,
					Message: fmt.Sprintf("assigns %s <- %s on rows where statement %d branch %d assigns %s: every overlapping row violates one of them",
						dsl.AttrName(b.On, rel), dsl.LiteralString(b.On, bb.Value, rel),
						i, al, dsl.LiteralString(a.On, ab.Value, rel)),
				}, true
			}
		}
	}
	return Finding{}, false
}
