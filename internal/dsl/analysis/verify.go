package analysis

import (
	"fmt"
	"sort"
	"strings"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/smt/sat"
)

// Verify runs the structural checks over p: the synthesizer's pruning gate
// and `guardrail lint`. rel supplies the dataset dictionary for domain
// checks and attribute/literal names in messages; it may be nil, in which
// case domain bounds are not checked and messages fall back to positional
// names. The returned findings are ordered by statement, then branch, then
// class.
func Verify(p *dsl.Program, rel *dataset.Relation) []Finding {
	var out []Finding
	if p == nil {
		return nil
	}
	// The verifier reasons over the unbounded missing-aware universe: a
	// nil-domain solver reduces the finite-domain procedure to exact atom
	// algebra, preserving the historical conjunction-only verdicts.
	slv := sat.NewSolver(nil)
	for si := range p.Stmts {
		out = append(out, checkStatement(slv, &p.Stmts[si], si, rel)...)
	}
	out = append(out, checkCycles(p, rel)...)
	sortFindings(out)
	return out
}

// StatementHasErrors reports whether Verify raises an Error on statement
// st, wherever st sits in its program. A statement's findings depend on
// the statement and rel alone, and checkCycles, the only check that looks
// across statements, emits Warnings only. HasErrors(Verify(p, rel)) is
// therefore the OR of StatementHasErrors over p's statements, which lets
// the synthesizer verify each distinct filled statement once.
func StatementHasErrors(st *dsl.Statement, rel *dataset.Relation) bool {
	return HasErrors(checkStatement(sat.NewSolver(nil), st, 0, rel))
}

// checkStatement runs the per-statement checks on s, reporting findings
// at statement index si.
func checkStatement(slv *sat.Solver, s *dsl.Statement, si int, rel *dataset.Relation) []Finding {
	var out []Finding

	// Self-dependency: ON inside GIVEN.
	for _, g := range s.Given {
		if g == s.On {
			out = append(out, Finding{
				Class: SelfDependency, Severity: Error, Stmt: si, Branch: -1, Other: -1,
				Message: fmt.Sprintf("dependent attribute %s appears in its own GIVEN set",
					dsl.AttrName(s.On, rel)),
			})
			break
		}
	}

	if len(s.Branches) == 0 {
		out = append(out, Finding{
			Class: DeadStatement, Severity: Error, Stmt: si, Branch: -1, Other: -1,
			Message: fmt.Sprintf("statement ON %s has no branches", dsl.AttrName(s.On, rel)),
		})
		return out
	}

	given := make(map[int]bool, len(s.Given))
	for _, g := range s.Given {
		given[g] = true
	}

	dead := make([]bool, len(s.Branches))
	for bi, b := range s.Branches {
		// Self-dependency: a condition atom testing the dependent attribute.
		for _, pr := range b.Cond {
			if pr.Attr == s.On {
				out = append(out, Finding{
					Class: SelfDependency, Severity: Error, Stmt: si, Branch: bi, Other: -1,
					Message: fmt.Sprintf("condition tests the dependent attribute %s",
						dsl.AttrName(s.On, rel)),
				})
			} else if !given[pr.Attr] {
				out = append(out, Finding{
					Class: DomainViolation, Severity: Warning, Stmt: si, Branch: bi, Other: -1,
					Message: fmt.Sprintf("condition tests %s, which is outside the GIVEN set",
						dsl.AttrName(pr.Attr, rel)),
				})
			}
		}

		// Domain checks against the dictionary.
		out = append(out, checkDomain(s, si, bi, rel)...)

		// Unsatisfiable condition: same attribute bound to two literals.
		if !slv.SatisfiableCond(b.Cond) {
			dead[bi] = true
			out = append(out, Finding{
				Class: Unreachable, Severity: Error, Stmt: si, Branch: bi, Other: -1,
				Message: fmt.Sprintf("condition %s is unsatisfiable (conflicting atoms on one attribute)",
					dsl.FormatCondition(b.Cond, rel)),
			})
			continue
		}

		// Subsumption against earlier live branches: first match wins, so a
		// branch implied by an earlier one never fires.
		for ei := 0; ei < bi; ei++ {
			if dead[ei] {
				continue
			}
			if !slv.ImpliesCond(b.Cond, s.Branches[ei].Cond) {
				continue
			}
			dead[bi] = true
			if s.Branches[ei].Value != b.Value {
				out = append(out, Finding{
					Class: Contradiction, Severity: Error, Stmt: si, Branch: bi, Other: ei,
					Message: fmt.Sprintf("%s is shadowed by branch %d, which assigns %s <- %s instead",
						dsl.FormatBranch(b, s.On, rel), ei,
						dsl.AttrName(s.On, rel), dsl.LiteralString(s.On, s.Branches[ei].Value, rel)),
				})
			} else {
				out = append(out, Finding{
					Class: Unreachable, Severity: Warning, Stmt: si, Branch: bi, Other: ei,
					Message: fmt.Sprintf("%s duplicates branch %d and never fires",
						dsl.FormatBranch(b, s.On, rel), ei),
				})
			}
			break
		}
	}

	// Dead statement: every branch unreachable.
	allDead := true
	for _, d := range dead {
		if !d {
			allDead = false
			break
		}
	}
	if allDead {
		out = append(out, Finding{
			Class: DeadStatement, Severity: Error, Stmt: si, Branch: -1, Other: -1,
			Message: fmt.Sprintf("statement ON %s has no reachable branch", dsl.AttrName(s.On, rel)),
		})
	}
	return out
}

// checkDomain validates branch bi of statement s (index si in the program)
// against rel's dictionary.
func checkDomain(s *dsl.Statement, si, bi int, rel *dataset.Relation) []Finding {
	var out []Finding
	b := s.Branches[bi]
	bad := func(attr int, v int32, what string) *Finding {
		if rel != nil {
			if attr < 0 || attr >= rel.NumAttrs() {
				return &Finding{Severity: Error, Message: fmt.Sprintf("%s attribute index %d is outside the schema", what, attr)}
			}
			if v != dataset.Missing && (v < 0 || int(v) >= rel.Cardinality(attr)) {
				return &Finding{Severity: Error, Message: fmt.Sprintf("%s literal code %d is not in the dictionary of %s (cardinality %d)",
					what, v, rel.Attr(attr), rel.Cardinality(attr))}
			}
		}
		if v == dataset.Missing {
			return &Finding{Severity: Warning, Message: fmt.Sprintf("%s asserts missingness of %s, which a constraint cannot test",
				what, dsl.AttrName(attr, rel))}
		}
		return nil
	}
	if f := bad(s.On, b.Value, "THEN"); f != nil {
		f.Class, f.Stmt, f.Branch, f.Other = DomainViolation, si, bi, -1
		out = append(out, *f)
	}
	for _, pr := range b.Cond {
		if f := bad(pr.Attr, pr.Value, "IF"); f != nil {
			f.Class, f.Stmt, f.Branch, f.Other = DomainViolation, si, bi, -1
			out = append(out, *f)
		}
	}
	return out
}

// checkCycles finds directed cycles in the determinant graph: an edge g → on
// for every statement "GIVEN ... g ... ON on". A cycle means rectification
// output depends on statement order (a determines b while b determines a),
// so the program is not a well-founded data-generating process.
func checkCycles(p *dsl.Program, rel *dataset.Relation) []Finding {
	type edge struct {
		to   int // dependent attribute
		stmt int // statement inducing the edge
	}
	adj := map[int][]edge{}
	for si, s := range p.Stmts {
		for _, g := range s.Given {
			adj[g] = append(adj[g], edge{to: s.On, stmt: si})
		}
	}
	nodes := make([]int, 0, len(adj))
	for a := range adj {
		nodes = append(nodes, a)
	}
	sort.Ints(nodes)

	const (
		unvisited = iota
		inStack
		done
	)
	state := map[int]int{}
	var pathAttrs []int // attributes on the current DFS path
	var pathStmts []int // pathStmts[i] is the statement of the edge into pathAttrs[i+1]
	var out []Finding
	seen := map[string]bool{} // canonical statement-set key -> reported

	var dfs func(a int)
	dfs = func(a int) {
		state[a] = inStack
		for _, e := range adj[a] {
			switch state[e.to] {
			case unvisited:
				pathAttrs = append(pathAttrs, e.to)
				pathStmts = append(pathStmts, e.stmt)
				dfs(e.to)
				pathAttrs = pathAttrs[:len(pathAttrs)-1]
				pathStmts = pathStmts[:len(pathStmts)-1]
			case inStack:
				// The cycle is the path suffix starting at e.to, closed by e.
				start := 0
				for i, pa := range pathAttrs {
					if pa == e.to {
						start = i
						break
					}
				}
				attrs := append([]int(nil), pathAttrs[start:]...)
				attrs = append(attrs, e.to)
				stmts := append([]int(nil), pathStmts[start:]...)
				stmts = append(stmts, e.stmt)
				out = append(out, reportCycle(attrs, stmts, rel, seen)...)
			}
		}
		state[a] = done
	}
	for _, a := range nodes {
		if state[a] == unvisited {
			pathAttrs = []int{a}
			pathStmts = nil
			dfs(a)
		}
	}
	return out
}

// reportCycle emits one Cycle finding per distinct statement set, anchored
// at the smallest statement index involved. attrs is the closed attribute
// walk (first == last); stmts the statements inducing each edge.
func reportCycle(attrs, stmts []int, rel *dataset.Relation, seen map[string]bool) []Finding {
	uniq := map[int]bool{}
	for _, s := range stmts {
		uniq[s] = true
	}
	ids := make([]int, 0, len(uniq))
	for s := range uniq {
		ids = append(ids, s)
	}
	sort.Ints(ids)
	key := fmt.Sprint(ids)
	if seen[key] {
		return nil
	}
	seen[key] = true

	var chain strings.Builder
	for i, a := range attrs {
		if i > 0 {
			chain.WriteString(" -> ")
		}
		chain.WriteString(dsl.AttrName(a, rel))
	}
	return []Finding{{
		Class: Cycle, Severity: Warning, Stmt: ids[0], Branch: -1, Other: -1,
		Message: fmt.Sprintf("determinant chain is cyclic (%s) across statements %v; rectification becomes order-sensitive",
			chain.String(), ids),
	}}
}
