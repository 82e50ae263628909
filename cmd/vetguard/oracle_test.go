package main

// The migration oracle for spanleak. The original implementation
// approximated "the close covers the return" with enclosure-chain
// prefixes: a close counts for a return only when every conditional
// construct the close sits in also encloses the return, and the close
// precedes the return textually. internal/vet reimplements the check as
// real dominance on a CFG. This file keeps the original implementation
// verbatim as a test oracle; TestSpanLeakMatchesLegacyOracle runs both
// over the fixture packages and requires byte-identical findings, which
// is the proof the migration preserved behavior where behavior was
// specified.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/guardrail-db/guardrail/internal/vet"
)

// legacyChecker is the pre-CFG checker shell, reduced to spanleak.
type legacyChecker struct {
	fset     *token.FileSet
	info     *types.Info
	findings []vet.Finding
}

func (c *legacyChecker) report(pos token.Pos, check, format string, args ...any) {
	c.findings = append(c.findings, vet.Finding{
		Pos:     c.fset.Position(pos),
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	})
}

func (c *legacyChecker) run(file *ast.File) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		c.checkSpanLeak(fn)
	}
}

// legacyIsSpanType reports whether t is one of the observability span
// value types — obs.Span (stage timer) or trace.Span (trace-tree node).
func legacyIsSpanType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != "Span" {
		return false
	}
	path := obj.Pkg().Path()
	for _, p := range []string{"internal/obs", "internal/obs/trace"} {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

// legacySpanVar tracks one span-typed local between its first
// call-assignment and the analysis at the end of the function.
type legacySpanVar struct {
	obj       types.Object
	name      string
	assignPos token.Pos
	deferred  bool        // defer sp.End() anywhere
	returned  bool        // sp appears in a return value: ownership moves out
	endPos    []token.Pos // non-deferred sp.End() call positions
}

// checkSpanLeak is the original enclosure-chain implementation,
// unchanged except for renamed receiver types and End as the only
// closer.
func (c *legacyChecker) checkSpanLeak(fn *ast.FuncDecl) {
	vars := map[types.Object]*legacySpanVar{}

	// Pass 1: collect span-typed call-assignments and every End.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				if _, isCall := rhs.(*ast.CallExpr); !isCall {
					continue
				}
				obj := c.info.ObjectOf(id)
				if obj == nil || !legacyIsSpanType(obj.Type()) {
					continue
				}
				if _, seen := vars[obj]; !seen {
					vars[obj] = &legacySpanVar{obj: obj, name: id.Name, assignPos: n.Pos()}
				}
			}
		case *ast.DeferStmt:
			if sv := c.spanEndCallee(n.Call, vars); sv != nil {
				sv.deferred = true
			}
		case *ast.CallExpr:
			if sv := c.spanEndCallee(n, vars); sv != nil {
				sv.endPos = append(sv.endPos, n.Pos())
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				ast.Inspect(res, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if sv, tracked := vars[c.info.ObjectOf(id)]; tracked {
							sv.returned = true
						}
					}
					return true
				})
			}
		}
		return true
	})
	if len(vars) == 0 {
		return
	}

	// Pass 2: every return statement in the span's scope needs a covering
	// End (unless the span is deferred or returned), and the
	// fall-through path needs at least one close overall.
	for _, sv := range vars {
		if sv.deferred || sv.returned {
			continue
		}
		if len(sv.endPos) == 0 {
			c.report(sv.assignPos, "spanleak",
				"span %s is started but never closed; call %s.End() or defer it",
				sv.name, sv.name)
			continue
		}
		endChains := make([][]ast.Node, len(sv.endPos))
		for i, p := range sv.endPos {
			endChains[i] = stripEnclosing(enclosureChain(fn.Body, p), sv.assignPos)
		}
		scope := sv.obj.Parent()
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			// A return inside a nested function literal exits that literal,
			// not the function the span lives in — unless the span itself was
			// started inside it.
			if lit, ok := n.(*ast.FuncLit); ok {
				if !(lit.Pos() <= sv.assignPos && sv.assignPos < lit.End()) {
					return false
				}
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || ret.Pos() < sv.assignPos {
				return true
			}
			if scope != nil && !scope.Contains(ret.Pos()) {
				return true // span's variable is out of scope here
			}
			retChain := stripEnclosing(enclosureChain(fn.Body, ret.Pos()), sv.assignPos)
			closed := false
			for i, p := range sv.endPos {
				if p > sv.assignPos && p < ret.Pos() && chainPrefix(endChains[i], retChain) {
					closed = true
					break
				}
			}
			if !closed {
				c.report(ret.Pos(), "spanleak",
					"return path abandons span %s without End (started at line %d)",
					sv.name, c.fset.Position(sv.assignPos).Line)
			}
			return true
		})
	}
}

// enclosureChain returns the stack of control-flow constructs (branches,
// loops, switch clauses, function literals, and their blocks) enclosing
// pos within root, outermost first.
func enclosureChain(root ast.Node, pos token.Pos) []ast.Node {
	var stack, chain []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if chain == nil && n.Pos() == pos {
			for _, s := range stack[:len(stack)-1] {
				switch s.(type) {
				case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
					*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt,
					*ast.CaseClause, *ast.CommClause, *ast.FuncLit, *ast.BlockStmt:
					chain = append(chain, s)
				}
			}
		}
		return true
	})
	return chain
}

// stripEnclosing drops the leading chain nodes that also enclose pos:
// what remains is the chain relative to the span's assignment, so
// constructs shared with the assignment (e.g. the loop both live in)
// don't count as extra conditionality.
func stripEnclosing(chain []ast.Node, pos token.Pos) []ast.Node {
	i := 0
	for i < len(chain) && chain[i].Pos() <= pos && pos < chain[i].End() {
		i++
	}
	return chain[i:]
}

// chainPrefix reports whether close-site chain a is a prefix of
// return-site chain b: the close dominates the return only when every
// conditional construct the close sits in also encloses the return.
func chainPrefix(a, b []ast.Node) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// spanEndCallee returns the tracked span an End call closes, if any:
// the call's receiver chain (sp.Int(...).End()) is unwound to its root
// identifier and matched against the tracked locals.
func (c *legacyChecker) spanEndCallee(call *ast.CallExpr, vars map[types.Object]*legacySpanVar) *legacySpanVar {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return nil
	}
	id := legacyRootIdent(sel.X)
	if id == nil {
		return nil
	}
	return vars[c.info.ObjectOf(id)]
}

// legacyRootIdent unwinds a receiver chain (a.B().C.D(...)) to its
// leftmost identifier.
func legacyRootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}
