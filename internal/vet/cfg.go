// Package vet is Guardrail's reusable Go static-analysis engine — the
// library under cmd/vetguard. It is stdlib-only (go/ast, go/token,
// go/types) by the same constraint as the linter itself: the toolchain
// must be the only build dependency.
//
// Three layers:
//
//   - a control-flow graph builder over function bodies (Build), with
//     statement-granularity nodes and explicit Entry/Exit,
//   - dominance and postdominance computation on that graph (Dominators,
//     PostDominators),
//   - a generic forward/backward dataflow framework (Solve) iterating
//     monotone transfer functions over small bitset lattices to fixpoint,
//
// plus the registry of project checks (Register/Checks) the vetguard
// driver runs. Flow-sensitive checks (lockbalance, maporder, deaderr,
// spanleak) are written against the engine; the syntactic hygiene checks
// (globalrand, ignorederr, nakedgo, regcopy) share the same Pass surface.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// NodeKind distinguishes the two synthetic nodes from statement nodes.
type NodeKind uint8

const (
	// KindEntry is the unique function entry node (no statement).
	KindEntry NodeKind = iota
	// KindExit is the unique function exit node: every return, every
	// panic, and the fall-off-the-end path lead here.
	KindExit
	// KindStmt is a node owning one statement (or case/comm clause).
	KindStmt
)

// Node is one CFG node. Statement granularity: a node owns exactly one
// ast.Stmt — compound statements (if/for/switch/...) own only their own
// header (condition, tag, range expression); their bodies are separate
// nodes. CaseClause and CommClause are nodes of their own so analyses
// see per-arm control flow.
type Node struct {
	Index int      // position in Graph.Nodes
	Kind  NodeKind // entry / exit / statement
	Stmt  ast.Stmt // nil for Entry and Exit
	Succs []*Node
	Preds []*Node
}

// Pos returns the node's source position (NoPos for entry/exit).
func (n *Node) Pos() token.Pos {
	if n.Stmt == nil {
		return token.NoPos
	}
	return n.Stmt.Pos()
}

// Graph is the CFG of one function body. Nodes[0] is Entry, Nodes[1] is
// Exit; statement nodes follow in the deterministic order the builder
// created them.
type Graph struct {
	Entry *Node
	Exit  *Node
	Nodes []*Node

	stmtNodes map[ast.Stmt]*Node
}

// NodeOf returns the node owning statement s, or nil if s is not a node
// of this graph (e.g. a block, a labeled wrapper, or a statement inside
// a nested function literal).
func (g *Graph) NodeOf(s ast.Stmt) *Node { return g.stmtNodes[s] }

// NodeAt returns the innermost statement node whose statement encloses
// pos — the node that "owns" an expression at pos. Positions inside a
// nested function literal resolve to the statement holding the literal;
// callers that must distinguish literal interiors check that
// themselves. Nil when pos is outside every node.
func (g *Graph) NodeAt(pos token.Pos) *Node {
	var best *Node
	for _, n := range g.Nodes {
		if n.Stmt == nil || pos < n.Stmt.Pos() || pos >= n.Stmt.End() {
			continue
		}
		if best == nil || (n.Stmt.Pos() >= best.Stmt.Pos() && n.Stmt.End() <= best.Stmt.End()) {
			best = n
		}
	}
	return best
}

// addEdge wires from → to once; duplicate edges are collapsed so meet
// operators see each predecessor exactly once.
func addEdge(from, to *Node) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// builder holds the in-progress graph and control context.
type builder struct {
	g      *Graph
	nodes  map[ast.Stmt]*Node // statement → its (memoized) node
	labels map[string]*Node   // label → entry node of the labeled statement
	// pending goto edges whose label had not been built yet when the
	// goto was; resolved at the end of Build.
	gotos []pendingGoto
}

type pendingGoto struct {
	from  *Node
	label string
}

// ctx carries the break/continue/fallthrough continuations while
// descending. Labeled loop/switch targets are registered in the builder's
// label maps as they are built.
type ctx struct {
	brk  *Node // innermost break target (statement after loop/switch/select)
	cont *Node // innermost continue target (post node, else loop header)
	fall *Node // fallthrough target (next case body), switch bodies only
	// label pending on the statement about to be built: `L: for ...`
	// registers L's break/continue targets while building the for.
	label       string
	labeledBrk  map[string]*Node
	labeledCont map[string]*Node
}

// Build constructs the CFG of one function body. Nested function
// literals are opaque expressions: their statements belong to their own
// graphs (call Build on each literal's body separately).
//
// Modeling decisions, chosen so hand-computed edge sets are checkable:
//
//   - if/for/switch Init statements get their own nodes preceding the
//     header node;
//   - a for node evaluates the condition: succs are body entry and (when
//     a condition exists) the statement after the loop — `for {}` has no
//     exit edge and relies on break;
//   - a range node has both a body edge and an exit edge;
//   - switch/type-switch nodes fan out to one node per case clause, plus
//     an edge to the follow statement when no default clause exists;
//     fallthrough jumps to the next clause's body, skipping its guard;
//   - select fans out to one node per comm clause; with no default the
//     select blocks until an arm is ready, so there is no follow edge
//     (and `select {}` has no successors at all);
//   - return statements edge to Exit; an expression statement that is a
//     direct call to the predeclared panic edges to Exit and nowhere
//     else;
//   - defer and go statements are ordinary straight-line nodes (analyses
//     that care about deferred effects inspect Node.Stmt);
//   - goto edges to the entry node of the labeled statement; code made
//     unreachable (after return/panic/goto) still gets nodes, just with
//     no predecessors.
func Build(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	g.Entry = &Node{Kind: KindEntry}
	g.Exit = &Node{Kind: KindExit}
	g.Nodes = []*Node{g.Entry, g.Exit}
	b := &builder{g: g, nodes: map[ast.Stmt]*Node{}, labels: map[string]*Node{}}

	entry := b.block(body.List, g.Exit, ctx{brk: nil, cont: nil})
	addEdge(g.Entry, entry)

	for _, pg := range b.gotos {
		if target, ok := b.labels[pg.label]; ok {
			addEdge(pg.from, target)
		}
		// An unresolvable label would not have compiled; nothing to do.
	}
	b.renumber()
	g.stmtNodes = b.nodes
	return g
}

// renumber assigns Node.Index in a deterministic order: entry, exit,
// then statement nodes by source position.
func (b *builder) renumber() {
	stmts := b.g.Nodes[2:]
	sort.SliceStable(stmts, func(i, j int) bool { return stmts[i].Pos() < stmts[j].Pos() })
	for i, n := range b.g.Nodes {
		n.Index = i
	}
}

// nodeFor returns the memoized node owning s, creating it on first use.
// Memoization is what lets loop backedges and gotos reference a node
// before (or after) its edges are wired.
func (b *builder) nodeFor(s ast.Stmt) *Node {
	if n, ok := b.nodes[s]; ok {
		return n
	}
	n := &Node{Kind: KindStmt, Stmt: s}
	b.nodes[s] = n
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

// block wires a statement list and returns its entry node (follow when
// the list is empty). Built back to front so each statement's follow is
// the entry of the rest.
func (b *builder) block(list []ast.Stmt, follow *Node, c ctx) *Node {
	entry := follow
	for i := len(list) - 1; i >= 0; i-- {
		entry = b.stmt(list[i], entry, c)
	}
	return entry
}

// stmt wires one statement's internal edges and its edge(s) toward
// follow, returning the statement's entry node.
func (b *builder) stmt(s ast.Stmt, follow *Node, c ctx) *Node {
	// The pending label (from an enclosing LabeledStmt) applies only to
	// the statement it directly wraps; clear it for children.
	label := c.label
	c.label = ""

	switch s := s.(type) {
	case *ast.LabeledStmt:
		c.label = s.Label.Name
		entry := b.stmt(s.Stmt, follow, c)
		b.labels[s.Label.Name] = entry
		return entry

	case *ast.BlockStmt:
		return b.block(s.List, follow, c)

	case *ast.IfStmt:
		n := b.nodeFor(s)
		addEdge(n, b.stmt(s.Body, follow, c))
		if s.Else != nil {
			addEdge(n, b.stmt(s.Else, follow, c))
		} else {
			addEdge(n, follow)
		}
		if s.Init != nil {
			init := b.nodeFor(s.Init)
			addEdge(init, n)
			return init
		}
		return n

	case *ast.ForStmt:
		loop := b.nodeFor(s)
		cont := loop
		if s.Post != nil {
			cont = b.nodeFor(s.Post)
			addEdge(cont, loop)
		}
		if label != "" {
			b.registerLabel(&c, label, follow, cont)
		}
		bc := c
		bc.brk, bc.cont, bc.fall = follow, cont, nil
		addEdge(loop, b.stmt(s.Body, cont, bc))
		if s.Cond != nil {
			addEdge(loop, follow)
		}
		if s.Init != nil {
			init := b.nodeFor(s.Init)
			addEdge(init, loop)
			return init
		}
		return loop

	case *ast.RangeStmt:
		loop := b.nodeFor(s)
		if label != "" {
			b.registerLabel(&c, label, follow, loop)
		}
		bc := c
		bc.brk, bc.cont, bc.fall = follow, loop, nil
		addEdge(loop, b.stmt(s.Body, loop, bc))
		addEdge(loop, follow)
		return loop

	case *ast.SwitchStmt:
		return b.switchLike(s, s.Init, clauseList(s.Body), true, follow, c, label)

	case *ast.TypeSwitchStmt:
		return b.switchLike(s, s.Init, clauseList(s.Body), false, follow, c, label)

	case *ast.SelectStmt:
		n := b.nodeFor(s)
		if label != "" {
			b.registerLabel(&c, label, follow, nil)
		}
		bc := c
		bc.brk, bc.fall = follow, nil
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			cn := b.nodeFor(cc)
			addEdge(n, cn)
			addEdge(cn, b.block(cc.Body, follow, bc))
		}
		return n

	case *ast.ReturnStmt:
		n := b.nodeFor(s)
		addEdge(n, b.g.Exit)
		return n

	case *ast.BranchStmt:
		n := b.nodeFor(s)
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				if t := c.labeledBrk[s.Label.Name]; t != nil {
					addEdge(n, t)
				}
			} else if c.brk != nil {
				addEdge(n, c.brk)
			}
		case token.CONTINUE:
			if s.Label != nil {
				if t := c.labeledCont[s.Label.Name]; t != nil {
					addEdge(n, t)
				}
			} else if c.cont != nil {
				addEdge(n, c.cont)
			}
		case token.GOTO:
			if t, ok := b.labels[s.Label.Name]; ok {
				addEdge(n, t)
			} else {
				b.gotos = append(b.gotos, pendingGoto{n, s.Label.Name})
			}
		case token.FALLTHROUGH:
			if c.fall != nil {
				addEdge(n, c.fall)
			}
		}
		return n

	case *ast.ExprStmt:
		n := b.nodeFor(s)
		if isPanicCall(s.X) {
			addEdge(n, b.g.Exit)
		} else {
			addEdge(n, follow)
		}
		return n

	default:
		// Assign, Decl, Defer, Go, Send, IncDec, Empty: straight line.
		n := b.nodeFor(s)
		addEdge(n, follow)
		return n
	}
}

// switchLike wires a switch or type-switch the way Go evaluates it: the
// header enters the first case clause; each case clause's node, which
// reads its case expressions, goes to its body or to the next case clause
// in source order; after the last case clause comes the default clause if
// there is one, else follow. Bodies end at follow, and fallthrough goes to
// the next clause's body.
func (b *builder) switchLike(s ast.Stmt, init ast.Stmt, clauses []*ast.CaseClause, allowFall bool, follow *Node, c ctx, label string) *Node {
	n := b.nodeFor(s)
	if label != "" {
		b.registerLabel(&c, label, follow, nil)
	}
	bc := c
	bc.brk = follow

	// Bodies are built back to front so each knows its fallthrough
	// target (the entry of the next clause's body).
	bodyEntries := make([]*Node, len(clauses))
	next := follow
	for i := len(clauses) - 1; i >= 0; i-- {
		cc := bc
		if allowFall {
			cc.fall = next
		}
		bodyEntries[i] = b.block(clauses[i].Body, follow, cc)
		next = bodyEntries[i]
	}
	prev, noMatch := n, follow
	for i, cl := range clauses {
		cn := b.nodeFor(cl)
		addEdge(cn, bodyEntries[i])
		if cl.List == nil {
			noMatch = cn
			continue
		}
		addEdge(prev, cn)
		prev = cn
	}
	addEdge(prev, noMatch)
	if init != nil {
		in := b.nodeFor(init)
		addEdge(in, n)
		return in
	}
	return n
}

// registerLabel maps a loop/switch label to its break (and, for loops,
// continue) targets for the statements built beneath it. The maps are
// copy-extended so sibling scopes stay isolated.
func (b *builder) registerLabel(c *ctx, label string, brk, cont *Node) {
	nb := make(map[string]*Node, len(c.labeledBrk)+1)
	for k, v := range c.labeledBrk {
		nb[k] = v
	}
	nb[label] = brk
	c.labeledBrk = nb
	if cont != nil {
		nc := make(map[string]*Node, len(c.labeledCont)+1)
		for k, v := range c.labeledCont {
			nc[k] = v
		}
		nc[label] = cont
		c.labeledCont = nc
	}
}

func clauseList(body *ast.BlockStmt) []*ast.CaseClause {
	out := make([]*ast.CaseClause, 0, len(body.List))
	for _, cl := range body.List {
		out = append(out, cl.(*ast.CaseClause))
	}
	return out
}

// isPanicCall reports whether e is a direct call to the predeclared
// panic. (A shadowed local `panic` would misclassify; the project does
// not shadow builtins, and go vet would flag it if it did.)
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// Describe renders a node for debug output and tests: "entry", "exit",
// or "L<line>:<StmtType>" using fset positions.
func (g *Graph) Describe(fset *token.FileSet, n *Node) string {
	switch n.Kind {
	case KindEntry:
		return "entry"
	case KindExit:
		return "exit"
	}
	t := fmt.Sprintf("%T", n.Stmt)
	t = strings.TrimPrefix(t, "*ast.")
	return fmt.Sprintf("L%d:%s", fset.Position(n.Stmt.Pos()).Line, t)
}

// String dumps the graph as "node -> succ, succ" lines in Nodes order —
// the format the CFG tests assert against.
func (g *Graph) String(fset *token.FileSet) string {
	var sb strings.Builder
	for _, n := range g.Nodes {
		sb.WriteString(g.Describe(fset, n))
		sb.WriteString(" -> ")
		names := make([]string, 0, len(n.Succs))
		for _, s := range n.Succs {
			names = append(names, g.Describe(fset, s))
		}
		sort.Strings(names)
		sb.WriteString(strings.Join(names, ", "))
		sb.WriteByte('\n')
	}
	return sb.String()
}
