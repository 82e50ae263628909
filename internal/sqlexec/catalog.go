package sqlexec

import (
	"fmt"
	"sort"
	"strings"

	"github.com/guardrail-db/guardrail/internal/dataset"
)

// Catalog holds named relations, including materialized views. The paper's
// prototype "does not natively support the JOIN operation; one can use
// materialized views to pre-compute the results and use our query executor
// over multiple tables" (§7) — MaterializeJoin provides exactly that
// workflow.
type Catalog struct {
	tables map[string]*dataset.Relation
}

// NewCatalog builds an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: map[string]*dataset.Relation{}}
}

// Register adds rel under name, replacing any previous table.
func (c *Catalog) Register(name string, rel *dataset.Relation) {
	c.tables[strings.ToLower(name)] = rel
}

// Lookup resolves a table name.
func (c *Catalog) Lookup(name string) (*dataset.Relation, bool) {
	rel, ok := c.tables[strings.ToLower(name)]
	return rel, ok
}

// Names lists registered tables, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Exec runs a query against the catalog, resolving FROM.
func (c *Catalog) Exec(query string, env *Env) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	rel, ok := c.Lookup(q.From)
	if !ok {
		return nil, fmt.Errorf("sqlexec: no table %q in catalog (have %v)", q.From, c.Names())
	}
	return Run(q, rel, env)
}

// MaterializeJoin pre-computes an inner equi-join of two registered tables
// on leftKey = rightKey and registers it under name. Column names from the
// right table that collide with left-table names get a "right_" prefix.
func (c *Catalog) MaterializeJoin(name, left, right, leftKey, rightKey string) (*dataset.Relation, error) {
	lrel, ok := c.Lookup(left)
	if !ok {
		return nil, fmt.Errorf("sqlexec: no table %q", left)
	}
	rrel, ok := c.Lookup(right)
	if !ok {
		return nil, fmt.Errorf("sqlexec: no table %q", right)
	}
	lk := lrel.AttrIndex(leftKey)
	if lk < 0 {
		return nil, fmt.Errorf("sqlexec: %s has no column %q", left, leftKey)
	}
	rk := rrel.AttrIndex(rightKey)
	if rk < 0 {
		return nil, fmt.Errorf("sqlexec: %s has no column %q", right, rightKey)
	}

	cols := append([]string(nil), lrel.Attrs()...)
	taken := map[string]bool{}
	for _, a := range cols {
		taken[a] = true
	}
	var rightCols []int
	for a := 0; a < rrel.NumAttrs(); a++ {
		if a == rk {
			continue
		}
		name := rrel.Attr(a)
		if taken[name] {
			name = "right_" + name
		}
		taken[name] = true
		cols = append(cols, name)
		rightCols = append(rightCols, a)
	}
	out := dataset.New(name, cols)

	// Hash join on string values (codes are not comparable across tables).
	index := map[string][]int{}
	for i := 0; i < rrel.NumRows(); i++ {
		index[rrel.Value(i, rk)] = append(index[rrel.Value(i, rk)], i)
	}
	row := make([]string, len(cols))
	for i := 0; i < lrel.NumRows(); i++ {
		matches := index[lrel.Value(i, lk)]
		for _, j := range matches {
			for a := 0; a < lrel.NumAttrs(); a++ {
				row[a] = lrel.Value(i, a)
			}
			for k, a := range rightCols {
				row[lrel.NumAttrs()+k] = rrel.Value(j, a)
			}
			if err := out.AppendRow(row); err != nil {
				return nil, err
			}
		}
	}
	c.Register(name, out)
	return out, nil
}
