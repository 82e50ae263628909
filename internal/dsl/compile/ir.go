// Package compile is the optimizing backend of Guardrail's guard runtime:
// a static-analysis-and-lowering pipeline that turns a DSL program into a
// dictionary-coded row-check engine. Where internal/dsl walks the AST per
// row, compile lowers each statement into a typed IR over encoded column
// values — equality atoms become integer comparisons against dictionary
// codes — and runs an ordered pass pipeline before emitting the runtime
// form:
//
//  1. dead-branch elimination   (solver-backed, agrees with analysis.LiveMask)
//  2. statement subsumption     (prune statements a preceding statement covers,
//     pruning                    guarded by a syntactic non-interference check
//     that keeps sequential Rectify/Eval semantics)
//  3. guard hoisting/factoring  (atoms shared by every branch are checked once)
//  4. dispatch selection        (branches binding one determinant set become a
//     perfect-hashed decision table — dense
//     mixed-radix or sparse keyed map — with a
//     first-match linear fallback)
//
// Every compilation is translation-validated: each pass emits proof
// obligations discharged by independent finite-domain solver queries
// (internal/smt/sat) and analysis.Canon fingerprints, and the decision
// tables are verified against their branch lists by exhaustive key
// enumeration. The AST interpreter remains the differential-testing
// oracle (DifferentialCheck, plus the fuzz harnesses in this package and
// internal/core).
package compile

import (
	"fmt"
	"sort"

	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/analysis"
	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
	"github.com/guardrail-db/guardrail/internal/smt/sat"
)

// Options configures a compilation.
type Options struct {
	// Domains bounds each attribute's value domain for the solver-backed
	// passes. The nil default compiles over the open universe (every
	// attribute unbounded), which is sound for codes past the
	// dictionaries: dataset.Encoder gives unseen values batch-local codes
	// from Cardinality(attr) up, and a relation interned into after
	// compilation grows codes the same way, so open is the only safe
	// choice for long-lived guards. Pass sat.DomainsOf(rel) only when
	// every row the compiled program will ever see holds only codes of
	// rel's dictionaries as they are at compile time; the bounded
	// universe lets the passes prune more aggressively.
	Domains sat.Domains
	// Obs receives the compile.* counters; nil disables instrumentation.
	Obs *obs.Registry
	// Trace parents the per-pass spans; the zero scope disables tracing.
	Trace trace.Scope
	// DenseTableLimit caps the entry count of a dense decision table
	// before the lowering falls back to a sparse keyed map; 0 selects the
	// default of 16384 entries (64 KiB of int32 per statement at most).
	DenseTableLimit int
	// NoPrune disables the dead-branch and subsumption passes, leaving
	// only hoisting and dispatch selection — the ablation configuration.
	NoPrune bool
}

func (o Options) denseLimit() int {
	if o.DenseTableLimit > 0 {
		return o.DenseTableLimit
	}
	return 1 << 14
}

// irBranch is one lowered branch: canonical sorted atoms plus the value
// the branch assigns.
type irBranch struct {
	atoms []dsl.Pred
	value int32
}

// irStmt is one statement in the dataflow IR, tagged with its position in
// the source program so violations keep their original statement indices.
type irStmt struct {
	orig     int
	on       int
	given    []int
	branches []irBranch
}

// asStatement reconstructs the dsl form of the IR statement, for solver
// proofs and fingerprinting.
func (st irStmt) asStatement() dsl.Statement {
	out := dsl.Statement{Given: st.given, On: st.on}
	for _, b := range st.branches {
		out.Branches = append(out.Branches, dsl.Branch{Cond: dsl.Condition(b.atoms), Value: b.value})
	}
	return out
}

// canonicalAtoms sorts c by (attr, value) and drops exact duplicates —
// conjunction semantics are order- and multiplicity-insensitive, so this
// preserves the matched row set exactly.
func canonicalAtoms(c dsl.Condition) []dsl.Pred {
	atoms := append([]dsl.Pred(nil), c...)
	sort.Slice(atoms, func(i, j int) bool {
		if atoms[i].Attr != atoms[j].Attr {
			return atoms[i].Attr < atoms[j].Attr
		}
		return atoms[i].Value < atoms[j].Value
	})
	out := atoms[:0]
	for i, a := range atoms {
		if i > 0 && a == atoms[i-1] {
			continue
		}
		out = append(out, a)
	}
	return out
}

// buildIR lowers p into the IR, rejecting programs whose literals fall
// outside the encoded-value space the engine dispatches over (attribute
// indices must be non-negative; values must be dictionary codes or the
// Missing sentinel, i.e. >= -1).
func buildIR(p *dsl.Program) ([]irStmt, error) {
	stmts := make([]irStmt, 0, len(p.Stmts))
	for si, s := range p.Stmts {
		if s.On < 0 {
			return nil, fmt.Errorf("compile: statement %d: ON attribute %d is negative", si, s.On)
		}
		ir := irStmt{orig: si, on: s.On, given: append([]int(nil), s.Given...)}
		for bi, b := range s.Branches {
			if b.Value < -1 {
				return nil, fmt.Errorf("compile: statement %d branch %d: assigned value %d below the code space", si, bi, b.Value)
			}
			for _, pr := range b.Cond {
				if pr.Attr < 0 {
					return nil, fmt.Errorf("compile: statement %d branch %d: attribute %d is negative", si, bi, pr.Attr)
				}
				if pr.Value < -1 {
					return nil, fmt.Errorf("compile: statement %d branch %d: literal %d below the code space", si, bi, pr.Value)
				}
			}
			ir.branches = append(ir.branches, irBranch{atoms: canonicalAtoms(b.Cond), value: b.Value})
		}
		stmts = append(stmts, ir)
	}
	return stmts, nil
}

// asProgram reconstructs a dsl.Program from the IR statement list.
func asProgram(stmts []irStmt) *dsl.Program {
	p := &dsl.Program{}
	for _, st := range stmts {
		p.Stmts = append(p.Stmts, st.asStatement())
	}
	return p
}

// maxAttrOf returns one past the highest attribute index the IR touches —
// the minimum row width the engine requires.
func maxAttrOf(stmts []irStmt) int {
	max := -1
	for _, st := range stmts {
		if st.on > max {
			max = st.on
		}
		for _, b := range st.branches {
			for _, pr := range b.atoms {
				if pr.Attr > max {
					max = pr.Attr
				}
			}
		}
	}
	return max + 1
}

// Compile runs the full pipeline over p and returns the executable form
// together with the translation-validation record. A non-nil error means
// the program is outside the engine's input space or an obligation failed
// to prove — the caller must keep using the AST interpreter. The returned
// Validation is non-nil whenever compilation ran far enough to record
// obligations, even on error, so callers can report what failed.
func Compile(p *dsl.Program, opts Options) (*Prog, *Validation, error) {
	csp := opts.Trace.Start("compile.program").Int("stmts", int64(len(p.Stmts)))
	defer csp.End()
	sc := csp.Scope()

	ir, err := buildIR(p)
	if err != nil {
		return nil, nil, err
	}
	val := &Validation{}
	reg := opts.Obs

	// One widened universe for every pass and proof: the original
	// program's literals fix it, so pruning never narrows the row set the
	// later obligations quantify over.
	wdom := analysis.Widen(opts.Domains, p)
	canonBefore, calls := analysis.Canon(p, wdom)
	val.SolverCalls += calls
	val.FingerprintBefore = analysis.Fingerprint(canonBefore)
	val.StmtsIn = len(ir)
	val.BranchesIn = countBranches(ir)

	if !opts.NoPrune {
		psp := sc.Start("compile.deadbranch")
		ir = passDeadBranches(ir, wdom, val)
		psp.Int("branches_pruned", int64(val.BranchesPruned)).Int("stmts_pruned", int64(val.StmtsPruned)).End()

		// The dead-branch pass only erases regions Canon also erases, so
		// the fingerprint must survive it; Canon runs its own solver, so
		// this is an independent check.
		canonMid, calls := analysis.Canon(asProgram(ir), wdom)
		val.SolverCalls += calls
		val.record(Obligation{
			Pass: "deadbranch", Stmt: -1, Kind: "canon-fingerprint",
			Proved: canonMid == canonBefore,
			Detail: fmt.Sprintf("fingerprint %016x preserved", analysis.Fingerprint(canonMid)),
		})

		ssp := sc.Start("compile.subsume")
		ir = passSubsumption(ir, wdom, val)
		ssp.Int("stmts_pruned", int64(val.StmtsSubsumed)).End()
	}

	canonAfter, calls := analysis.Canon(asProgram(ir), wdom)
	val.SolverCalls += calls
	val.FingerprintAfter = analysis.Fingerprint(canonAfter)

	lsp := sc.Start("compile.lower")
	prog := &Prog{srcStmts: len(p.Stmts), minWidth: maxAttrOf(ir)}
	for _, st := range ir {
		prog.stmts = append(prog.stmts, lowerStatement(st, wdom, opts, val))
	}
	lsp.Int("table", int64(val.TableStmts)).Int("linear", int64(val.LinearStmts)).End()

	val.StmtsOut = len(prog.stmts)
	val.BranchesOut = countBranches(ir)

	if reg != nil {
		reg.Counter("compile.programs").Inc()
		reg.Counter("compile.stmts_in").Add(int64(val.StmtsIn))
		reg.Counter("compile.stmts_out").Add(int64(val.StmtsOut))
		reg.Counter("compile.branches_pruned").Add(int64(val.BranchesPruned))
		reg.Counter("compile.stmts_pruned").Add(int64(val.StmtsPruned + val.StmtsSubsumed))
		reg.Counter("compile.atoms_hoisted").Add(int64(val.AtomsHoisted))
		reg.Counter("compile.stmts_table").Add(int64(val.TableStmts))
		reg.Counter("compile.stmts_linear").Add(int64(val.LinearStmts))
		reg.Counter("compile.obligations").Add(int64(len(val.Obligations)))
		reg.Counter("compile.obligations_proved").Add(int64(val.proved()))
		reg.Counter("compile.solver_calls").Add(val.SolverCalls)
	}

	if !val.AllProved() {
		return nil, val, fmt.Errorf("compile: translation validation failed: %s", val.firstUnproved())
	}
	return prog, val, nil
}

func countBranches(stmts []irStmt) int {
	n := 0
	for _, st := range stmts {
		n += len(st.branches)
	}
	return n
}

// keyLimit bounds mixed-radix keys so multiplier products cannot
// overflow uint64.
const keyLimit = uint64(1) << 62

// overflow-safe multiply for radix products; ok=false when the product
// would exceed keyLimit.
func mulCap(a, b uint64) (uint64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a > keyLimit/b {
		return 0, false
	}
	return a * b, true
}
