package vet

// spanleak, rewritten onto the CFG engine. The original implementation
// approximated "the close covers the return" with enclosure-chain
// prefixes — a close dominates a return only when every conditional
// construct the close sits in also encloses the return. That is exactly
// CFG dominance, computed here for real: a return path abandons a span
// unless some End node dominates the return node. The migration is
// proved by cmd/vetguard's oracle test, which runs the original
// chain-prefix implementation side by side on the fixtures and asserts
// byte-identical findings.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

func init() {
	register(Check{
		Name: "spanleak",
		Doc:  "span started but abandoned on some return path without End",
		Run:  runSpanLeak,
	})
}

// isSpanType reports whether t is one of the observability span value
// types — obs.Span (pipeline stage) or trace.Span (trace-tree node).
// Matched by package-path suffix so the testdata fixtures (whose import
// paths are prefixed with the fixture directory) resolve the same way
// as real code.
func isSpanType(t types.Type) bool {
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

// spanVar tracks one span-typed local between its first call-assignment
// and the analysis against the body's CFG.
type spanVar struct {
	obj       types.Object
	name      string
	assignPos token.Pos
	deferred  bool        // defer sp.End() anywhere
	returned  bool        // sp appears in a return value: ownership moves out
	endPos    []token.Pos // every non-deferred End call position
	endNodes  []*Node     // CFG nodes of the ends lexically in this body
}

// runSpanLeak flags span-typed locals received from a call (obs's
// Registry.Stage, trace's Scope.Start, ...) that some path through the
// function abandons without End: an unclosed obs stage never records
// its duration, and an unclosed trace span exports as an unfinished
// record with no duration. A span is accounted for when it
// is closed by a defer, closed on the way to each subsequent return
// statement, or handed to the caller in a return value. Chained
// attribute calls (sp.Int(...).End()) count — the receiver chain is
// unwound to its root. Close-site coverage is dominance on the CFG: an
// End inside a conditional does not cover a return outside it.
func runSpanLeak(p *Pass) {
	for _, fb := range p.funcBodies() {
		p.spanLeakBody(fb.body)
	}
}

// spanLeakBody analyzes the spans first-assigned directly in body
// (spans assigned inside nested literals belong to the literal's own
// funcBodies entry).
func (p *Pass) spanLeakBody(body *ast.BlockStmt) {
	g := p.CFG(body)
	vars := map[types.Object]*spanVar{}
	var order []*spanVar

	// Pass 1a: span-typed call-assignments lexically in this body (not
	// in a nested literal).
	inspectShallow(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			rhs := as.Rhs[0]
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			}
			if _, isCall := rhs.(*ast.CallExpr); !isCall {
				continue
			}
			obj := p.Info.ObjectOf(id)
			if obj == nil || !isSpanType(obj.Type()) {
				continue
			}
			if _, seen := vars[obj]; !seen {
				sv := &spanVar{obj: obj, name: id.Name, assignPos: as.Pos()}
				vars[obj] = sv
				order = append(order, sv)
			}
		}
		return true
	})
	if len(vars) == 0 {
		return
	}

	// Pass 1b: closes, defers, and ownership transfers — anywhere in the
	// body's subtree, nested literals included (a close inside a
	// literal still counts toward "closed at least once", it just
	// cannot dominate a return of this body).
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if sv := p.spanEndCallee(n.Call, vars); sv != nil {
				sv.deferred = true
			}
		case *ast.CallExpr:
			if sv := p.spanEndCallee(n, vars); sv != nil {
				sv.endPos = append(sv.endPos, n.Pos())
				if node := g.NodeAt(n.Pos()); node != nil && !insideNestedLit(body, n.Pos()) {
					sv.endNodes = append(sv.endNodes, node)
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				ast.Inspect(res, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if sv, tracked := vars[p.Info.ObjectOf(id)]; tracked {
							sv.returned = true
						}
					}
					return true
				})
			}
		}
		return true
	})

	dom := p.Dom(g)
	for _, sv := range order {
		if sv.deferred || sv.returned {
			continue
		}
		if len(sv.endPos) == 0 {
			p.Reportf(sv.assignPos, "spanleak",
				"span %s is started but never closed; call %s.End() or defer it",
				sv.name, sv.name)
			continue
		}
		scope := sv.obj.Parent()
		for _, n := range g.Nodes {
			ret, ok := n.Stmt.(*ast.ReturnStmt)
			if !ok || ret.Pos() < sv.assignPos {
				continue
			}
			if scope != nil && !scope.Contains(ret.Pos()) {
				continue // span's variable is out of scope here
			}
			closed := false
			for i, end := range sv.endNodes {
				if sv.endPos[i] <= sv.assignPos {
					continue
				}
				if end != n && dom.Dominates(end, n) {
					closed = true
					break
				}
			}
			if !closed {
				p.Reportf(ret.Pos(), "spanleak",
					"return path abandons span %s without End (started at line %d)",
					sv.name, p.Fset.Position(sv.assignPos).Line)
			}
		}
	}
}

// insideNestedLit reports whether pos sits inside a function literal
// nested in body.
func insideNestedLit(body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit.Pos() <= pos && pos < lit.End() {
			found = true
			return false
		}
		return true
	})
	return found
}

// spanEndCallee returns the tracked span an End call closes, if
// any: the call's receiver chain (sp.Int(...).End()) is unwound to its
// root identifier and matched against the tracked locals.
func (p *Pass) spanEndCallee(call *ast.CallExpr, vars map[types.Object]*spanVar) *spanVar {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return nil
	}
	id := rootIdent(sel.X)
	if id == nil {
		return nil
	}
	return vars[p.Info.ObjectOf(id)]
}
