package vet

// maporder: nondeterministic map-iteration order reaching an
// order-sensitive sink. Two layers:
//
// Layer 1 is the original syntactic maprange check, kept verbatim as a
// fast path: a `for ... range m` over a map whose body appends to a
// slice outliving the loop (never sorted afterwards), writes to an
// output stream, or compound-accumulates into a float outliving the
// loop. Go randomizes map order, so the first two sinks differ run to
// run and the third differs in the low bits — float addition is not
// associative, so accumulation order changes the rounding (the G²
// strata bug, fixed in stats.Strata.g: p-values near the alpha threshold
// flipped between runs).
//
// Layer 2 is a forward taint analysis on the CFG that follows
// map-iteration order through assignments the syntactic check cannot
// see. Facts are "this variable's value (or element order) depends on
// which map iteration produced it". Range over a map taints its
// key/value variables; assignment propagates taint from the right-hand
// side; ranging over a tainted slice taints the new iteration
// variables (its element order is the map's order); a sort.*/
// slices.Sort* call launders the sequence it sorts (sortTarget, the
// same decision layer 1's collect-then-sort exemption uses). Sinks fire
// outside the map loop itself — where layer 1 is blind: a tainted value
// escaping into an output call, an append of tainted values to a slice
// that is never sorted, and float accumulation of tainted values in a
// later loop.
// Inside the map loop, layer 2 adds only the plain self-referential
// form `g = g + v`, which the compound-only syntactic check misses.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

func init() {
	register(Check{
		Name: "maporder",
		Doc:  "map iteration order reaching an order-sensitive sink (output, unsorted append, float accumulation)",
		Run:  runMapOrder,
	})
}

func runMapOrder(p *Pass) {
	// Layer 1: syntactic fast path, scoped exactly like the original —
	// every range statement under a FuncDecl body (nested literals
	// included), sort-laundering scanned across that whole body.
	for _, decl := range p.File.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				p.mapRangeSyntactic(rs, fn.Body)
			}
			return true
		})
	}

	// Layer 2: flow-sensitive taint, one CFG per body.
	for _, fb := range p.funcBodies() {
		p.mapOrderTaint(fb.body)
	}
}

// --- layer 1: syntactic fast path (original maprange) ---

func (p *Pass) mapRangeSyntactic(rs *ast.RangeStmt, fnBody *ast.BlockStmt) {
	t := p.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}

	var appendTargets, floatTargets []string
	var outputCall string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !p.isBuiltinAppend(call) || i >= len(n.Lhs) {
					continue
				}
				tgt := n.Lhs[i]
				if p.declaredWithin(tgt, rs.Body) {
					continue // per-iteration accumulator; order cannot leak
				}
				appendTargets = append(appendTargets, types.ExprString(tgt))
			}
			if tgt := p.floatAccumTarget(n, rs.Body); tgt != "" {
				floatTargets = append(floatTargets, tgt)
			}
		case *ast.CallExpr:
			if outputCall == "" && p.isOutputCall(n) {
				outputCall = calleeName(n)
			}
		}
		return true
	})

	if outputCall != "" {
		p.Reportf(rs.Pos(), "maporder",
			"map iteration writes output via %s in nondeterministic order", outputCall)
	}
	for _, tgt := range appendTargets {
		if p.sortedAfterPos(tgt, rs.End(), fnBody) {
			continue
		}
		p.Reportf(rs.Pos(), "maporder",
			"map iteration appends to %s in nondeterministic order and %s is never sorted afterwards", tgt, tgt)
	}
	for _, tgt := range floatTargets {
		p.Reportf(rs.Pos(), "maporder",
			"map iteration accumulates into float %s in nondeterministic order; float addition is not associative, so the rounding differs run to run — iterate the keys in sorted order", tgt)
	}
}

// floatAccumTarget returns the rendered target of a floating-point
// compound accumulation (+=, -=, *=, /=) whose variable outlives the
// loop body, or "". Integer accumulation commutes exactly and is fine
// in any order; float accumulation picks up order-dependent rounding.
func (p *Pass) floatAccumTarget(n *ast.AssignStmt, body ast.Node) string {
	switch n.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return ""
	}
	if len(n.Lhs) != 1 {
		return ""
	}
	if !p.isFloatExpr(n.Lhs[0]) || p.declaredWithin(n.Lhs[0], body) {
		return ""
	}
	return types.ExprString(n.Lhs[0])
}

func (p *Pass) isFloatExpr(e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&(types.IsFloat|types.IsComplex) != 0
}

func (p *Pass) isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	obj := p.Info.Uses[id]
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin || obj == nil
}

// declaredWithin reports whether expr is an identifier whose declaration
// lies inside node (e.g. a slice created fresh on every loop iteration).
// Selector expressions (struct fields) always count as outer.
func (p *Pass) declaredWithin(expr ast.Expr, node ast.Node) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// isOutputCall reports whether call writes to an output stream: the fmt
// print family or a Write*/print method on any receiver.
func (p *Pass) isOutputCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if pkg, ok := p.Info.Uses[selIdent(sel)].(*types.PkgName); ok {
		return pkg.Imported().Path() == "fmt" && fmtPrinters[sel.Sel.Name]
	}
	name := sel.Sel.Name
	return strings.HasPrefix(name, "Write") || name == "Print" || name == "Printf"
}

// sortedAfterPos reports whether a sort call whose target renders as
// target appears after pos within the enclosing function — the canonical
// collect-then-sort idiom.
func (p *Pass) sortedAfterPos(target string, pos token.Pos, fnBody *ast.BlockStmt) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && call.Pos() >= pos {
			if tgt := p.sortTarget(call); tgt != nil && types.ExprString(tgt) == target {
				found = true
			}
		}
		return true
	})
	return found
}

// sortTarget returns the sequence a sort.*/slices.Sort* call sorts — its
// first argument with parentheses and type conversions stripped, so
// sort.Sort(byName(keys)) sorts keys — or nil when call is not a sort
// call. Both maporder layers launder exactly this expression.
func (p *Pass) sortTarget(call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	pkg, ok := p.Info.Uses[selIdent(sel)].(*types.PkgName)
	if !ok {
		return nil
	}
	switch pkg.Imported().Path() {
	case "sort":
	case "slices":
		if !strings.HasPrefix(sel.Sel.Name, "Sort") {
			return nil
		}
	default:
		return nil
	}
	tgt := call.Args[0]
	for {
		switch x := tgt.(type) {
		case *ast.ParenExpr:
			tgt = x.X
			continue
		case *ast.CallExpr:
			if len(x.Args) == 1 && p.Info.Types[x.Fun].IsType() {
				tgt = x.Args[0]
				continue
			}
		}
		return tgt
	}
}

// --- layer 2: taint dataflow ---

// mapOrderState carries one body's taint-analysis context.
type mapOrderState struct {
	p         *Pass
	idx       map[types.Object]int // tracked variable -> fact bit
	mapRanges []*ast.RangeStmt     // map-range statements in this body
	loops     []ast.Stmt           // all for/range statements in this body
	ifs       []*ast.IfStmt        // all if statements, for selection detection
}

func (p *Pass) mapOrderTaint(body *ast.BlockStmt) {
	g := p.CFG(body)
	mo := &mapOrderState{p: p, idx: map[types.Object]int{}}

	// Fact universe: every variable mentioned lexically in this body, in
	// first-occurrence order (deterministic bit assignment). Closures can
	// in principle smuggle taint across body boundaries; that flow is out
	// of scope here — each literal body is analyzed on its own.
	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj, ok := p.Info.ObjectOf(n).(*types.Var); ok {
				if _, seen := mo.idx[obj]; !seen {
					mo.idx[obj] = len(mo.idx)
				}
			}
		case *ast.RangeStmt:
			mo.loops = append(mo.loops, n)
			if t := p.Info.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					mo.mapRanges = append(mo.mapRanges, n)
				}
			}
		case *ast.ForStmt:
			mo.loops = append(mo.loops, n)
		case *ast.IfStmt:
			mo.ifs = append(mo.ifs, n)
		}
		return true
	})
	if len(mo.mapRanges) == 0 && len(mo.idx) == 0 {
		return
	}
	// Without a map range in this body no variable can ever become
	// tainted from within, so the sinks cannot fire; skip the solve.
	if len(mo.mapRanges) == 0 {
		return
	}

	width := len(mo.idx)
	flows := Solve(g, Problem{
		Facts:    width,
		Transfer: mo.transfer,
	})

	for _, n := range g.Nodes {
		mo.checkSinks(n, flows[n.Index].In, body)
	}
}

// tainted reports whether any identifier inside e carries taint under
// the fact set in.
func (mo *mapOrderState) tainted(e ast.Expr, in BitSet) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if i, tracked := mo.idx[mo.p.Info.ObjectOf(id)]; tracked && in.Has(i) {
				found = true
			}
		}
		return true
	})
	return found
}

// setVar applies a strong update to a plain identifier target and a
// weak (taint-only-grows) update to a slice or array element write —
// an appended-to or element-written sequence carries its insertion
// order. Writes into maps and struct fields do NOT taint the root: a
// map is an unordered container (storing map-ordered values under
// their keys is deterministic), and without that cutoff a single keyed
// store like preds[label] = col would taint the whole aggregate and
// everything later read through it.
func (mo *mapOrderState) setVar(lhs ast.Expr, taint bool, out BitSet) {
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if i, tracked := mo.idx[mo.p.Info.ObjectOf(id)]; tracked {
			if taint {
				out.Set(i)
			} else {
				out.Clear(i)
			}
		}
		return
	}
	if !taint {
		return
	}
	if root := rootIdent(lhs); root != nil {
		obj := mo.p.Info.ObjectOf(root)
		if i, tracked := mo.idx[obj]; tracked && isSequence(obj.Type()) {
			out.Set(i)
		}
	}
}

// isSequence reports whether t is an order-bearing container (slice or
// array, possibly behind a pointer).
func isSequence(t types.Type) bool {
	if t == nil {
		return false
	}
	u := t.Underlying()
	if ptr, ok := u.(*types.Pointer); ok {
		u = ptr.Elem().Underlying()
	}
	switch u.(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

// transfer is the taint transfer function. All right-hand sides are
// evaluated against the incoming facts (Go evaluates every RHS before
// any assignment lands), and each clause is monotone in the input.
func (mo *mapOrderState) transfer(n *Node, in BitSet) BitSet {
	out := in.Clone()
	switch s := n.Stmt.(type) {
	case *ast.RangeStmt:
		t := false
		if typ := mo.p.Info.TypeOf(s.X); typ != nil {
			_, t = typ.Underlying().(*types.Map)
		}
		t = t || mo.tainted(s.X, in)
		if s.Key != nil {
			mo.setVar(s.Key, t, out)
		}
		if s.Value != nil {
			mo.setVar(s.Value, t, out)
		}
	case *ast.AssignStmt:
		if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
			// A comparison-guarded assignment to its own guard variables
			// is a selection (running max/min, argmax with a tie-break):
			// the selected element over an unordered set is deterministic,
			// so the result is laundered rather than tainted.
			launder := mo.selectionGuarded(s)
			if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
				t := !launder && mo.tainted(s.Rhs[0], in)
				for _, l := range s.Lhs {
					mo.setVar(l, t, out)
				}
			} else {
				for i, l := range s.Lhs {
					if i < len(s.Rhs) {
						mo.setVar(l, !launder && mo.tainted(s.Rhs[i], in), out)
					}
				}
			}
		} else if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			// compound op=: the target keeps taint it had and absorbs the
			// operand's.
			mo.setVar(s.Lhs[0], mo.tainted(s.Lhs[0], in) || mo.tainted(s.Rhs[0], in), out)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					t := false
					if len(vs.Values) == 1 && len(vs.Names) > 1 {
						t = mo.tainted(vs.Values[0], in)
					} else if i < len(vs.Values) {
						t = mo.tainted(vs.Values[i], in)
					}
					mo.setVar(name, t, out)
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if tgt := mo.p.sortTarget(call); tgt != nil {
				if root := rootIdent(tgt); root != nil {
					if i, tracked := mo.idx[mo.p.Info.ObjectOf(root)]; tracked {
						out.Clear(i)
					}
				}
			}
		}
	}
	return out
}

// selectionGuarded reports whether as sits inside an if statement whose
// condition compares against one of as's own targets — the running
// max/min shape:
//
//	if v > max { max = v }
//	if c > modeC || (c == modeC && v < mode) { mode, modeC = v, c }
//
// Selecting an extremum from an unordered set is order-insensitive
// (assuming the comparison totally orders candidates), so the selected
// value is treated as laundered. An incomplete tie-break is a false
// negative this trade accepts to keep real reductions quiet.
func (mo *mapOrderState) selectionGuarded(as *ast.AssignStmt) bool {
	targets := map[types.Object]bool{}
	for _, l := range as.Lhs {
		if id, ok := l.(*ast.Ident); ok {
			if obj := mo.p.Info.ObjectOf(id); obj != nil {
				targets[obj] = true
			}
		}
	}
	if len(targets) == 0 {
		return false
	}
	for _, is := range mo.ifs {
		if !(is.Body.Pos() <= as.Pos() && as.Pos() < is.Body.End()) {
			continue
		}
		compares, mentions := false, false
		ast.Inspect(is.Cond, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				switch n.Op {
				case token.LSS, token.GTR, token.LEQ, token.GEQ:
					compares = true
				}
			case *ast.Ident:
				if targets[mo.p.Info.ObjectOf(n)] {
					mentions = true
				}
			}
			return true
		})
		if compares && mentions {
			return true
		}
	}
	return false
}

// enclosingMapRange returns the innermost map-range statement whose
// body lexically contains pos, or nil.
func (mo *mapOrderState) enclosingMapRange(pos token.Pos) *ast.RangeStmt {
	var best *ast.RangeStmt
	for _, rs := range mo.mapRanges {
		if rs.Body.Pos() <= pos && pos < rs.Body.End() {
			if best == nil || rs.Body.Pos() > best.Body.Pos() {
				best = rs
			}
		}
	}
	return best
}

// enclosingLoop returns the innermost for/range statement whose body
// lexically contains pos, or nil.
func (mo *mapOrderState) enclosingLoop(pos token.Pos) ast.Stmt {
	var best ast.Stmt
	bestPos := token.NoPos
	for _, l := range mo.loops {
		var b *ast.BlockStmt
		switch l := l.(type) {
		case *ast.ForStmt:
			b = l.Body
		case *ast.RangeStmt:
			b = l.Body
		}
		if b.Pos() <= pos && pos < b.End() {
			if best == nil || b.Pos() > bestPos {
				best, bestPos = l, b.Pos()
			}
		}
	}
	return best
}

// checkSinks inspects one CFG node against the solved taint facts.
func (mo *mapOrderState) checkSinks(n *Node, in BitSet, fnBody *ast.BlockStmt) {
	p := mo.p
	if n.Stmt == nil || in == nil {
		return
	}
	pos := n.Stmt.Pos()
	inMap := mo.enclosingMapRange(pos)

	switch s := n.Stmt.(type) {
	case *ast.AssignStmt:
		// Float accumulation of a tainted value. Inside a map loop layer 1
		// already reports every compound form, so only the plain
		// self-referential spelling `g = g + v` is new there; outside,
		// both forms are layer-2 territory (the loop iterating in map
		// order is a later loop over a tainted slice).
		lhs, rhsTaint, compound := mo.floatAccum(s, in)
		if lhs != nil && rhsTaint {
			switch {
			case inMap != nil:
				if !compound && !p.declaredWithin(lhs, inMap.Body) {
					p.Reportf(pos, "maporder",
						"float %s accumulates values in map-iteration order (plain assignment form); float addition is not associative, so the rounding differs run to run — iterate the keys in sorted order",
						types.ExprString(lhs))
				}
			default:
				if loop := mo.enclosingLoop(pos); loop != nil && !mo.loopBodyDeclares(lhs, loop) {
					p.Reportf(pos, "maporder",
						"float %s accumulates values derived from map iteration in nondeterministic order; float addition is not associative, so the rounding differs run to run — sort before accumulating",
						types.ExprString(lhs))
				}
			}
		}
		// Tainted append escaping the map loop: layer 1 only sees appends
		// lexically inside the range body.
		if inMap == nil {
			for i, rhs := range s.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !p.isBuiltinAppend(call) || i >= len(s.Lhs) {
					continue
				}
				argTainted := false
				for _, a := range call.Args[1:] {
					if mo.tainted(a, in) {
						argTainted = true
						break
					}
				}
				if !argTainted {
					continue
				}
				tgt := types.ExprString(s.Lhs[i])
				if loop := mo.enclosingLoop(pos); loop != nil && mo.loopBodyDeclares(s.Lhs[i], loop) {
					continue
				}
				if p.sortedAfterPos(tgt, s.End(), fnBody) {
					continue
				}
				p.Reportf(pos, "maporder",
					"%s collects values derived from map iteration in nondeterministic order and is never sorted afterwards", tgt)
			}
		}
	case *ast.ExprStmt:
		// Tainted value reaching an output call outside the map loop
		// (inside, layer 1 flags every output call already).
		if inMap != nil {
			return
		}
		call, ok := s.X.(*ast.CallExpr)
		if !ok || !p.isOutputCall(call) {
			return
		}
		for _, a := range call.Args {
			if mo.tainted(a, in) {
				p.Reportf(pos, "maporder",
					"%s is called with a value derived from map iteration; the output is nondeterministic run to run", calleeName(call))
				return
			}
		}
	}
}

// floatAccum recognizes both accumulation spellings on a float target:
// compound (g += v) and plain self-referential (g = g + v). It returns
// the target, whether the accumulated operand is tainted, and which
// spelling it was.
func (mo *mapOrderState) floatAccum(s *ast.AssignStmt, in BitSet) (lhs ast.Expr, rhsTaint, compound bool) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return nil, false, false
	}
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if !mo.p.isFloatExpr(s.Lhs[0]) {
			return nil, false, false
		}
		return s.Lhs[0], mo.tainted(s.Rhs[0], in), true
	case token.ASSIGN:
		id, ok := s.Lhs[0].(*ast.Ident)
		if !ok || !mo.p.isFloatExpr(id) {
			return nil, false, false
		}
		bin, ok := s.Rhs[0].(*ast.BinaryExpr)
		if !ok {
			return nil, false, false
		}
		switch bin.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
		default:
			return nil, false, false
		}
		obj := mo.p.Info.ObjectOf(id)
		selfRef, taintedOther := false, false
		ast.Inspect(bin, func(n ast.Node) bool {
			if other, ok := n.(*ast.Ident); ok {
				o := mo.p.Info.ObjectOf(other)
				if o == obj {
					selfRef = true
				} else if i, tracked := mo.idx[o]; tracked && in.Has(i) {
					taintedOther = true
				}
			}
			return true
		})
		if !selfRef {
			return nil, false, false
		}
		return id, taintedOther, false
	}
	return nil, false, false
}

// loopBodyDeclares reports whether lhs is declared inside loop's body
// (a per-iteration accumulator, which cannot leak order).
func (mo *mapOrderState) loopBodyDeclares(lhs ast.Expr, loop ast.Stmt) bool {
	switch l := loop.(type) {
	case *ast.ForStmt:
		return mo.p.declaredWithin(lhs, l.Body)
	case *ast.RangeStmt:
		return mo.p.declaredWithin(lhs, l.Body)
	}
	return false
}
