// Package sketch implements Guardrail's sketch language (Fig. 3) and the
// non-triviality criteria of §4.1: a program sketch fixes each statement's
// GIVEN and ON clauses and leaves the HAVING clause as a hole. Sketches are
// extracted from DAGs of the learned Markov equivalence class (one
// statement per node with parents, Proposition 1 / Theorem 4.1) and checked
// for local and global non-triviality with G² tests.
package sketch

import (
	"fmt"
	"sort"
	"strings"

	"github.com/guardrail-db/guardrail/internal/graph"
	"github.com/guardrail-db/guardrail/internal/stats"
)

// Stmt is a statement sketch: GIVEN Given ON On HAVING □.
type Stmt struct {
	Given []int
	On    int
}

// Key returns a canonical identifier for the sketch — the statement-level
// cache key used by the synthesizer (§7, "statement-level cache").
func (s Stmt) Key() string {
	g := append([]int(nil), s.Given...)
	sort.Ints(g)
	var b strings.Builder
	for i, a := range g {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", a)
	}
	fmt.Fprintf(&b, "->%d", s.On)
	return b.String()
}

// Prog is a program sketch.
type Prog struct {
	Stmts []Stmt
}

// FromDAG extracts the program sketch entailed by a DAG: one statement per
// node with a non-empty parent set (Alg. 2, lines 4–9).
func FromDAG(d *graph.DAG) Prog {
	var p Prog
	for j := 0; j < d.N(); j++ {
		pa := d.Parents(j)
		if len(pa) == 0 {
			continue
		}
		p.Stmts = append(p.Stmts, Stmt{Given: pa, On: j})
	}
	return p
}

// composite builds a derived stats.Data with one extra variable: the
// mixed-radix composite of the attrs columns, so set-level (in)dependence
// "a_j ⊥ a_k" can be tested with a pairwise G² test.
type composite struct {
	stats.Data
	col  []int32
	card int
}

func (c *composite) NumVars() int { return c.Data.NumVars() + 1 }
func (c *composite) Card(i int) int {
	if i == c.Data.NumVars() {
		return c.card
	}
	return c.Data.Card(i)
}
func (c *composite) Codes(i int) []int32 {
	if i == c.Data.NumVars() {
		return c.col
	}
	return c.Data.Codes(i)
}

// compose builds the composite variable over attrs. Cardinality is the
// product of member cardinalities (missing treated as an extra category).
func compose(d stats.Data, attrs []int) (*composite, error) {
	card := 1
	for _, a := range attrs {
		card *= d.Card(a) + 1
		if card > 1<<20 {
			return nil, fmt.Errorf("sketch: composite cardinality overflow for %v", attrs)
		}
	}
	// Each member's column and cardinality are read once, not per cell:
	// both are interface calls, and Codes may also pass a sync.Once.
	cols := make([][]int32, len(attrs))
	cards := make([]int32, len(attrs))
	for i, a := range attrs {
		cols[i], cards[i] = d.Codes(a), int32(d.Card(a))
	}
	n := d.N()
	col := make([]int32, n)
	for r := 0; r < n; r++ {
		var key int32
		for i, codes := range cols {
			c := codes[r]
			if c < 0 {
				c = cards[i]
			}
			key = key*(cards[i]+1) + c
		}
		col[r] = key
	}
	return &composite{Data: d, col: col, card: card}, nil
}

// LNT reports local non-triviality of s over d (Def. 4.1): the dependent
// attribute must be statistically dependent on the determinant set as a
// whole. alpha is the significance level of the underlying G² test.
func LNT(s Stmt, d stats.Data, alpha float64) (bool, error) {
	if len(s.Given) == 0 {
		return false, nil
	}
	if len(s.Given) == 1 {
		res, err := stats.GTest(d, s.On, s.Given[0], nil)
		if err != nil {
			return false, err
		}
		return !res.Independent(alpha), nil
	}
	c, err := compose(d, s.Given)
	if err != nil {
		return false, err
	}
	res, err := stats.GTest(c, s.On, c.Data.NumVars(), nil)
	if err != nil {
		return false, err
	}
	return !res.Independent(alpha), nil
}

// GNT reports global non-triviality of p over d (Def. 4.2): every
// statement must remain dependent on its determinant set after
// conditioning on the determinant sets of the other statements. The check
// conditions on each other statement's determinants individually (the
// pairwise projection of the definition), capping the conditioning-set
// size at maxCond to keep tables dense.
func GNT(p Prog, d stats.Data, alpha float64, maxCond int) (bool, error) {
	if maxCond <= 0 {
		maxCond = 2
	}
	for i, s := range p.Stmts {
		lnt, err := LNT(s, d, alpha)
		if err != nil {
			return false, err
		}
		if !lnt {
			return false, nil
		}
		for j, other := range p.Stmts {
			if i == j {
				continue
			}
			cond := conditioningSet(other, s, maxCond)
			if len(cond) == 0 {
				continue
			}
			dep, err := dependentGiven(s, d, alpha, cond)
			if err != nil {
				return false, err
			}
			if !dep {
				return false, nil
			}
		}
	}
	return true, nil
}

// conditioningSet returns other's determinants minus any attribute
// overlapping s, capped at maxCond. Branch conditions range over the
// determinant attributes, so D^b in Def. 4.2 conditions exactly on
// other.Given.
func conditioningSet(other, s Stmt, maxCond int) []int {
	skip := map[int]bool{s.On: true}
	for _, g := range s.Given {
		skip[g] = true
	}
	var out []int
	for _, a := range other.Given {
		if !skip[a] && !contains(out, a) {
			out = append(out, a)
		}
		if len(out) >= maxCond {
			break
		}
	}
	return out
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// dependentGiven tests s.On ⊥̸ s.Given | cond. Deterministic relations
// violate faithfulness: when cond pins down s.Given (e.g. conditioning a
// chain statement on its determinant's own determinant), the determinant is
// constant within every stratum and no test can falsify GNT — such vacuous
// configurations pass. When the determinant still varies but dependence
// vanishes, GNT genuinely fails (Example 4.1).
func dependentGiven(s Stmt, d stats.Data, alpha float64, cond []int) (bool, error) {
	varies, err := variesGiven(d, s.Given, cond)
	if err != nil {
		return false, err
	}
	if !varies {
		return true, nil
	}
	if len(s.Given) == 1 {
		res, err := stats.GTest(d, s.On, s.Given[0], cond)
		if err != nil {
			return false, err
		}
		return !res.Independent(alpha), nil
	}
	c, err := compose(d, s.Given)
	if err != nil {
		return false, err
	}
	res, err := stats.GTest(c, s.On, c.Data.NumVars(), cond)
	if err != nil {
		return false, err
	}
	return !res.Independent(alpha), nil
}

// variesGiven reports whether the composite of attrs takes more than one
// value within the strata defined by cond for a non-negligible share of
// rows (>5%).
func variesGiven(d stats.Data, attrs, cond []int) (bool, error) {
	cg, err := compose(d, attrs)
	if err != nil {
		return false, err
	}
	cc, err := compose(d, cond)
	if err != nil {
		return false, err
	}
	n := d.N()
	if n == 0 {
		return false, nil
	}
	first := map[int32]int32{}
	count := map[int32]int{}
	varying := map[int32]bool{}
	for r := 0; r < n; r++ {
		k, v := cc.col[r], cg.col[r]
		count[k]++
		if f, ok := first[k]; !ok {
			first[k] = v
		} else if f != v {
			varying[k] = true
		}
	}
	vr := 0
	for k, c := range count {
		if varying[k] {
			vr += c
		}
	}
	return float64(vr) > 0.05*float64(n), nil
}
