package sqlexec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl/compile"
	"github.com/guardrail-db/guardrail/internal/ml"
	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// Value is a SQL value: a number, a string, or NULL.
type Value struct {
	Num   float64
	Str   string
	IsNum bool
	Null  bool
}

// NumValue builds a numeric value.
func NumValue(v float64) Value { return Value{Num: v, IsNum: true} }

// StrValue builds a string value.
func StrValue(s string) Value { return Value{Str: s} }

// NullValue is the SQL NULL.
var NullValue = Value{Null: true}

// String renders the value.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	if v.IsNum {
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
	return v.Str
}

// appendTo appends v.String() to b without allocating for numbers.
func (v Value) appendTo(b []byte) []byte {
	if v.IsNum && !v.Null {
		return strconv.AppendFloat(b, v.Num, 'g', -1, 64)
	}
	return append(b, v.String()...)
}

// truthy interprets a value as a boolean predicate result.
func (v Value) truthy() bool {
	if v.Null {
		return false
	}
	if v.IsNum {
		return v.Num != 0
	}
	return v.Str != ""
}

// Env supplies models and an optional guard to the executor.
type Env struct {
	// Models maps label attribute names to trained models, consulted by
	// PREDICT(label) / label_pred expressions.
	Models map[string]ml.Model
	// Guard, when non-nil, vets every scanned row before it reaches the
	// model, applying its strategy (raise/ignore/coerce/rectify). It steps
	// each distinct row once, so Guard.Step must depend only on the row.
	Guard *core.Guard
	// DisablePushdown turns off predicate pushdown (for the ablation
	// bench); by default WHERE conjuncts that do not reference predictions
	// are evaluated before any model call.
	DisablePushdown bool
	// Obs receives sql.* counters and the sql.guard / sql.inference stage
	// histograms; nil records nothing.
	Obs *obs.Registry
	// Trace parents the executor's span tree (sql.query → sql.guard /
	// sql.scan / sql.inference); the zero scope records nothing, though
	// those two stages still read the clock for Stats' timing fields.
	Trace trace.Scope
}

// guardJITRows is the scan size at which the executor compiles a
// still-interpreted guard (open universe, translation validated) before
// the per-row loop, amortizing the compile over the scan. Compilation
// failure is not an error — the guard keeps interpreting and
// sql.guard_jit_failed counts the fallback.
const guardJITRows = 1024

// Stats reports executor instrumentation (Table 6's breakdown).
type Stats struct {
	RowsScanned   int
	RowsFiltered  int // rows removed by pushed-down predicates before inference
	PredictCalls  int // predictions consumed: one per live row and label
	GuardTime     time.Duration
	InferenceTime time.Duration
}

// Result is a query result table.
type Result struct {
	Cols  []string
	Rows  [][]Value
	Stats Stats
}

// Column returns the values of a named result column.
func (r *Result) Column(name string) ([]float64, error) {
	idx := -1
	for i, c := range r.Cols {
		if c == name {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("sqlexec: no result column %q", name)
	}
	out := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		if !row[idx].IsNum {
			return nil, fmt.Errorf("sqlexec: column %q is not numeric", name)
		}
		out[i] = row[idx].Num
	}
	return out, nil
}

// Exec parses and runs query against rel.
func Exec(query string, rel *dataset.Relation, env *Env) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Run(q, rel, env)
}

// Run executes a parsed query.
func Run(q *Query, rel *dataset.Relation, env *Env) (*Result, error) {
	if env == nil {
		env = &Env{}
	}
	if !strings.EqualFold(q.From, rel.Name()) && rel.Name() != "" && q.From != "" {
		// Tolerate mismatches silently only when the query table is the
		// relation's name or the relation is anonymous.
		if !strings.EqualFold(q.From, "t") {
			return nil, fmt.Errorf("sqlexec: query reads table %q, relation is %q", q.From, rel.Name())
		}
	}
	ex := &executor{rel: rel, env: env, width: rel.NumAttrs(), vals: make([][]Value, rel.NumAttrs())}
	bq, err := ex.bindQuery(q)
	if err != nil {
		return nil, err
	}
	res, err := ex.run(bq)
	if err != nil {
		return nil, err
	}
	res.Cols = make([]string, len(q.Select))
	for ci, it := range q.Select {
		res.Cols[ci] = columnName(it, ci)
	}
	return res, nil
}

type executor struct {
	rel   *dataset.Relation
	env   *Env
	stats Stats
	// rid[i] is scanned row i's distinct id, numbered in order of first
	// occurrence; rows holds the nd distinct rows, width codes each. Every
	// pure per-row step (guard, prediction, row expression) runs on
	// distinct rows, and per-row loops only index by rid.
	rid   []int32
	rows  []int32
	nd    int
	width int
	// vals[a] is attribute a's decodeDict, built once per query; nil for
	// attributes the query does not read.
	vals [][]Value
	// labels lists the PREDICT targets in order of first reference;
	// preds[s][r] is labels[s]'s prediction for distinct row r.
	labels []string
	preds  [][]int32
}

// boundCol is a ColRef resolved against the relation once per query: attr
// is its attribute index and, for a prediction, slot indexes ex.preds.
type boundCol struct {
	ColRef
	attr, slot int
}

func (boundCol) exprNode() {}

// row returns distinct row r.
func (ex *executor) row(r int32) []int32 {
	i := int(r)
	return ex.rows[i*ex.width : (i+1)*ex.width : (i+1)*ex.width]
}

// scan numbers the first n rows of the relation by distinct code tuple, in
// order of first occurrence, and copies each distinct row once into
// ex.rows. The open-addressing table, sized once from n for a load factor
// of at most 1/2, holds rid+1 per slot (0 is empty); a probe compares the
// row with the candidate's first row, column by column.
func (ex *executor) scan(n int) {
	cols := make([][]int32, ex.width)
	for a := range cols {
		cols[a] = ex.rel.Column(a)[:n]
	}
	size := 2
	for size < 2*n {
		size <<= 1
	}
	mask := uint64(size - 1)
	slots := make([]int32, size)
	ex.rid = make([]int32, n)
	firsts := make([]int32, 0, n) // firsts[r] is distinct row r's first row
	// Rows are hashed a block at a time, one column after another, so no
	// row waits on the previous row's hash.
	var hs [256]uint64
	for lo := 0; lo < n; lo += len(hs) {
		hb := hs[:min(len(hs), n-lo)]
		for k := range hb {
			hb[k] = 14695981039346656037
		}
		for _, col := range cols {
			for k, c := range col[lo : lo+len(hb)] {
				hb[k] = (hb[k] ^ uint64(uint32(c))) * 1099511628211
			}
		}
		for k, h := range hb {
			i := lo + k
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
			h ^= h >> 33
		probe:
			for s := h & mask; ; s = (s + 1) & mask {
				r := slots[s] - 1
				if r < 0 {
					ex.rid[i] = int32(len(firsts))
					firsts = append(firsts, int32(i))
					slots[s] = int32(len(firsts))
					break
				}
				f := firsts[r]
				for _, col := range cols {
					if col[f] != col[i] {
						continue probe
					}
				}
				ex.rid[i] = r
				break
			}
		}
	}
	ex.nd = len(firsts)
	ex.rows = make([]int32, ex.nd*ex.width)
	for a, col := range cols {
		for r, f := range firsts {
			ex.rows[r*ex.width+a] = col[f]
		}
	}
}

// bindQuery checks every column reference and PREDICT target up front and
// returns a copy of q whose column references are bound.
func (ex *executor) bindQuery(q *Query) (*Query, error) {
	bq := *q
	bq.Select = slices.Clone(q.Select)
	bq.GroupBy = slices.Clone(q.GroupBy)
	bq.OrderBy = slices.Clone(q.OrderBy)
	var err error
	bind := func(e *Expr) {
		if err == nil && *e != nil {
			*e, err = ex.bind(*e)
		}
	}
	for i := range bq.Select {
		bind(&bq.Select[i].Expr)
	}
	bind(&bq.Where)
	for i := range bq.GroupBy {
		bind(&bq.GroupBy[i])
	}
	bind(&bq.Having)
	for i := range bq.OrderBy {
		bind(&bq.OrderBy[i].Expr)
	}
	if err != nil {
		return nil, err
	}
	return &bq, nil
}

// bind returns e with every ColRef replaced by its boundCol, decoding the
// dictionary of each attribute the query reads.
func (ex *executor) bind(e Expr) (Expr, error) {
	var err error
	switch n := e.(type) {
	case ColRef:
		a := ex.rel.AttrIndex(n.Name)
		if a < 0 {
			return nil, fmt.Errorf("sqlexec: unknown column %q", n.Name)
		}
		if ex.vals[a] == nil {
			ex.vals[a] = decodeDict(ex.rel.Dict(a))
		}
		b := boundCol{ColRef: n, attr: a, slot: -1}
		if n.Pred {
			if ex.env.Models == nil || ex.env.Models[n.Name] == nil {
				return nil, fmt.Errorf("sqlexec: no model registered for %q", n.Name)
			}
			b.slot = slices.Index(ex.labels, n.Name)
			if b.slot < 0 {
				b.slot = len(ex.labels)
				ex.labels = append(ex.labels, n.Name)
			}
		}
		return b, nil
	case Binary:
		if n.L, err = ex.bind(n.L); err != nil {
			return nil, err
		}
		n.R, err = ex.bind(n.R)
		return n, err
	case Unary:
		n.E, err = ex.bind(n.E)
		return n, err
	case Case:
		whens := make([]WhenArm, len(n.Whens))
		for i, w := range n.Whens {
			if whens[i].Cond, err = ex.bind(w.Cond); err != nil {
				return nil, err
			}
			if whens[i].Then, err = ex.bind(w.Then); err != nil {
				return nil, err
			}
		}
		n.Whens = whens
		if n.Else != nil {
			n.Else, err = ex.bind(n.Else)
		}
		return n, err
	case Agg:
		if n.Star {
			return n, nil
		}
		if n.Arg, err = ex.bind(n.Arg); err != nil {
			return nil, err
		}
		switch n.Arg.(type) {
		case boundCol, NumLit, StrLit:
			// A bare column or literal already reads in O(1).
		default:
			n.Arg = &memo{e: n.Arg}
		}
		return n, nil
	case InList:
		if n.E, err = ex.bind(n.E); err != nil {
			return nil, err
		}
		items := make([]Expr, len(n.Items))
		for i, it := range n.Items {
			if items[i], err = ex.bind(it); err != nil {
				return nil, err
			}
		}
		n.Items = items
		return n, nil
	default:
		return e, nil
	}
}

// decodeDict decodes a dictionary into SQL values, shifted by one so that
// index 0 is the NULL of a missing cell. A string that parses as a float
// is a number, so "1" and "1.0" compare and group alike.
func decodeDict(d *dataset.Dict) []Value {
	vals := make([]Value, d.Len()+1)
	vals[0] = NullValue
	for c := range d.Len() {
		s := d.Value(int32(c))
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			vals[c+1] = NumValue(f)
		} else {
			vals[c+1] = StrValue(s)
		}
	}
	return vals
}

// usesPred reports whether e references any prediction.
func usesPred(e Expr) bool {
	switch n := e.(type) {
	case boundCol:
		return n.Pred
	case Binary:
		return usesPred(n.L) || usesPred(n.R)
	case Unary:
		return usesPred(n.E)
	case Case:
		for _, w := range n.Whens {
			if usesPred(w.Cond) || usesPred(w.Then) {
				return true
			}
		}
		return n.Else != nil && usesPred(n.Else)
	case Agg:
		return !n.Star && usesPred(n.Arg)
	case *memo:
		return usesPred(n.e)
	case InList:
		if usesPred(n.E) {
			return true
		}
		for _, it := range n.Items {
			if usesPred(it) {
				return true
			}
		}
	}
	return false
}

// splitConjuncts flattens the AND tree of a WHERE clause.
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

func (ex *executor) run(q *Query) (*Result, error) {
	n := ex.rel.NumRows()
	ex.stats.RowsScanned = n
	reg := ex.env.Obs
	reg.Counter("sql.queries").Inc()
	reg.Counter("sql.rows_scanned").Add(int64(n))
	qsp := ex.env.Trace.Start("sql.query").Int("rows", int64(n))
	defer qsp.End()
	tsc := qsp.Scope()

	// Stage 0: guard interception — every incoming row is vetted before
	// anything downstream sees it (Example 1.2). The guard works on the
	// distinct-row copies, so Coerce and Rectify do not mutate the
	// caller's relation. Step depends only on the row, so under Raise the
	// first violating distinct row is the first violating row.
	ssp := tsc.Start("sql.scan")
	ex.scan(n)
	ssp.Int("distinct", int64(ex.nd)).End()
	reg.Counter("sql.rows_distinct").Add(int64(ex.nd))
	if ex.env.Guard != nil {
		// JIT: a big enough scan pays for compiling the guard once. Open
		// universe (nil domains) keeps the compiled form sound for values
		// the guard has never seen; on validation failure the interpreter
		// keeps serving the scan.
		if n >= guardJITRows && ex.env.Guard.Engine().Backend() == "ast" {
			if _, err := ex.env.Guard.Compile(compile.Options{Obs: reg, Trace: tsc}); err != nil {
				reg.Counter("sql.guard_jit_failed").Inc()
			} else {
				reg.Counter("sql.guard_jit").Inc()
			}
		}
		gsp := reg.Stage(tsc, "sql.guard").Str("engine", ex.env.Guard.Engine().Backend())
		for r := range int32(ex.nd) {
			if _, _, err := ex.env.Guard.Step(ex.row(r)); err != nil {
				gsp.End()
				return nil, fmt.Errorf("sqlexec: guard: %w", err)
			}
		}
		ex.stats.GuardTime = gsp.End()
	}

	// Stage 1: predicate pushdown — evaluate prediction-free conjuncts
	// before running the model.
	psp := tsc.Start("sql.plan")
	var pre, post []Expr
	if q.Where != nil {
		for _, c := range splitConjuncts(q.Where) {
			if !ex.env.DisablePushdown && !usesPred(c) {
				pre = append(pre, c)
			} else {
				post = append(post, c)
			}
		}
	}
	live, pass, err := ex.filter(ex.rid, pre)
	if err != nil {
		psp.End()
		return nil, err
	}
	ex.stats.RowsFiltered = n - len(live)
	reg.Counter("sql.rows_filtered").Add(int64(ex.stats.RowsFiltered))
	psp.Int("filtered", int64(ex.stats.RowsFiltered)).End()

	// Stage 2: compute needed predictions, one model call per distinct
	// live row and label. Every row of a distinct row shares its verdict,
	// so the live distinct rows, in rid order, are in order of first
	// occurrence. PredictCalls counts the predictions consumed: one per
	// live row and label.
	ex.preds = make([][]int32, len(ex.labels))
	for slot, label := range ex.labels {
		model := ex.env.Models[label]
		col := make([]int32, ex.nd)
		msp := reg.Stage(tsc, "sql.inference").Str("label", label).Int("rows", int64(len(live)))
		for r := range int32(ex.nd) {
			if pass == nil || pass[r] == passKeep {
				col[r] = model.Predict(ex.row(r))
			}
		}
		ex.stats.PredictCalls += len(live)
		ex.stats.InferenceTime += msp.End()
		ex.preds[slot] = col
	}
	reg.Counter("sql.predict_calls").Add(int64(ex.stats.PredictCalls))

	// Stage 3: residual WHERE.
	final, _, err := ex.filter(live, post)
	if err != nil {
		return nil, err
	}

	// Stage 4: grouping. Each group lists its rows' rids in row order.
	type grp struct {
		key  string
		rows []int32
	}
	var groups []grp
	if len(q.GroupBy) == 0 && !hasAggregates(q) && q.Having == nil {
		// Plain projection: one output row per input row.
		groups = make([]grp, len(final))
		for j := range final {
			groups[j].rows = final[j : j+1 : j+1]
		}
	} else if len(q.GroupBy) == 0 {
		groups = []grp{{rows: final}}
	} else {
		// The key of each distinct row is built and looked up once;
		// gidOf[r] is r's group index + 1, 0 until r is keyed. A
		// counting pass sizes every group before the rows are placed.
		gidOf := make([]int32, ex.nd)
		byKey := map[string]int32{}
		var sizes []int
		var kb []byte
		for _, r := range final {
			g := gidOf[r] - 1
			if g < 0 {
				kb = kb[:0]
				for _, e := range q.GroupBy {
					v, err := ex.evalRow(e, r)
					if err != nil {
						return nil, err
					}
					kb = append(v.appendTo(kb), 0)
				}
				var ok bool
				if g, ok = byKey[string(kb)]; !ok {
					g = int32(len(groups))
					groups = append(groups, grp{key: string(kb)})
					sizes = append(sizes, 0)
					byKey[groups[g].key] = g
				}
				gidOf[r] = g + 1
			}
			sizes[g]++
		}
		all := make([]int32, len(final))
		for g, size := range sizes {
			groups[g].rows, all = all[:0:size], all[size:]
		}
		for _, r := range final {
			g := gidOf[r] - 1
			groups[g].rows = append(groups[g].rows, r)
		}
		sort.Slice(groups, func(a, b int) bool { return groups[a].key < groups[b].key })
	}

	// Stage 5: HAVING over groups.
	if q.Having != nil {
		var kept []grp
		for _, g := range groups {
			v, err := ex.evalGroup(q.Having, g.rows)
			if err != nil {
				return nil, err
			}
			if v.truthy() {
				kept = append(kept, g)
			}
		}
		groups = kept
	}

	// Stage 6: ORDER BY over groups (before projection so keys may use
	// expressions that are not projected).
	if len(q.OrderBy) > 0 {
		keys := make([][]Value, len(groups))
		for i, g := range groups {
			keys[i] = make([]Value, len(q.OrderBy))
			for ki, k := range q.OrderBy {
				v, err := ex.evalGroup(k.Expr, g.rows)
				if err != nil {
					return nil, err
				}
				keys[i][ki] = v
			}
		}
		idx := make([]int, len(groups))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for ki, k := range q.OrderBy {
				c := compareValues(keys[idx[a]][ki], keys[idx[b]][ki])
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		sorted := make([]grp, len(groups))
		for i, j := range idx {
			sorted[i] = groups[j]
		}
		groups = sorted
	}

	// Stage 7: projection and LIMIT.
	res := &Result{}
	seen := map[string]bool{}
	var kb []byte
	for _, g := range groups {
		if len(q.GroupBy) == 0 && len(g.rows) == 0 && !hasAggregates(q) {
			continue
		}
		out := make([]Value, len(q.Select))
		for ci, it := range q.Select {
			v, err := ex.evalGroup(it.Expr, g.rows)
			if err != nil {
				return nil, err
			}
			out[ci] = v
		}
		if q.Distinct {
			kb = kb[:0]
			for _, v := range out {
				kb = append(v.appendTo(kb), 0)
			}
			if seen[string(kb)] {
				continue
			}
			seen[string(kb)] = true
		}
		res.Rows = append(res.Rows, out)
		if q.Limit >= 0 && len(res.Rows) >= q.Limit {
			break
		}
	}
	if q.Limit == 0 {
		res.Rows = nil
	}
	res.Stats = ex.stats
	return res, nil
}

// filter's verdict per distinct row.
const (
	passUnknown uint8 = iota
	passDrop
	passKeep
)

// filter returns the entries of rids, one per row in row order, whose
// distinct row passes every conjunct, and each distinct row's verdict (nil
// when there are no conjuncts). Each distinct row's conjuncts are
// evaluated once, left to right with short circuit, on its first row, so
// evaluation order and errors are those of a row-at-a-time scan.
func (ex *executor) filter(rids []int32, conj []Expr) ([]int32, []uint8, error) {
	if len(conj) == 0 {
		return rids, nil, nil
	}
	pass := make([]uint8, ex.nd)
	out := make([]int32, 0, len(rids))
	for _, r := range rids {
		if pass[r] == passUnknown {
			pass[r] = passKeep
			for _, c := range conj {
				v, err := ex.evalRow(c, r)
				if err != nil {
					return nil, nil, err
				}
				if !v.truthy() {
					pass[r] = passDrop
					break
				}
			}
		}
		if pass[r] == passKeep {
			out = append(out, r)
		}
	}
	return out, pass, nil
}

// compareValues orders two SQL values: NULL first, then numeric, then
// string comparison.
func compareValues(a, b Value) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	case a.IsNum && b.IsNum:
		switch {
		case a.Num < b.Num:
			return -1
		case a.Num > b.Num:
			return 1
		}
		return 0
	}
	return strings.Compare(a.String(), b.String())
}

func hasAggregates(q *Query) bool {
	for _, it := range q.Select {
		if exprHasAgg(it.Expr) {
			return true
		}
	}
	return false
}

func exprHasAgg(e Expr) bool {
	switch n := e.(type) {
	case Agg:
		return true
	case Binary:
		return exprHasAgg(n.L) || exprHasAgg(n.R)
	case Unary:
		return exprHasAgg(n.E)
	case Case:
		for _, w := range n.Whens {
			if exprHasAgg(w.Cond) || exprHasAgg(w.Then) {
				return true
			}
		}
		return n.Else != nil && exprHasAgg(n.Else)
	}
	return false
}

func columnName(it SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	switch n := it.Expr.(type) {
	case ColRef:
		if n.Pred {
			return n.Name + "_pred"
		}
		return n.Name
	case Agg:
		if n.Star {
			return "COUNT(*)"
		}
		return n.Fn
	}
	return fmt.Sprintf("col%d", i)
}

// evalRow evaluates e against distinct row r (-1 when e reads no row).
func (ex *executor) evalRow(e Expr, r int32) (Value, error) {
	switch n := e.(type) {
	case NumLit:
		return NumValue(n.V), nil
	case StrLit:
		return StrValue(n.V), nil
	case boundCol:
		if n.Pred {
			if r < 0 {
				return NullValue, fmt.Errorf("sqlexec: prediction for %q unavailable in this context", n.Name)
			}
			return ex.vals[n.attr][ex.preds[n.slot][r]+1], nil
		}
		return ex.vals[n.attr][ex.rows[int(r)*ex.width+n.attr]+1], nil
	case *memo:
		return ex.memoized(n, r)
	case Unary:
		v, err := ex.evalRow(n.E, r)
		if err != nil {
			return NullValue, err
		}
		if n.Op == "NOT" {
			return boolValue(!v.truthy()), nil
		}
		if !v.IsNum {
			return NullValue, fmt.Errorf("sqlexec: negating non-number")
		}
		return NumValue(-v.Num), nil
	case Binary:
		return ex.evalBinary(n, r)
	case Case:
		for _, w := range n.Whens {
			c, err := ex.evalRow(w.Cond, r)
			if err != nil {
				return NullValue, err
			}
			if c.truthy() {
				return ex.evalRow(w.Then, r)
			}
		}
		if n.Else != nil {
			return ex.evalRow(n.Else, r)
		}
		return NullValue, nil
	case Agg:
		return NullValue, fmt.Errorf("sqlexec: aggregate %s in row context", n.Fn)
	case InList:
		v, err := ex.evalRow(n.E, r)
		if err != nil {
			return NullValue, err
		}
		if v.Null {
			return NullValue, nil
		}
		found := false
		for _, item := range n.Items {
			iv, err := ex.evalRow(item, r)
			if err != nil {
				return NullValue, err
			}
			if iv.Null {
				continue
			}
			if (v.IsNum && iv.IsNum && v.Num == iv.Num) || (!v.IsNum || !iv.IsNum) && v.String() == iv.String() {
				found = true
				break
			}
		}
		return boolValue(found != n.Neg), nil
	}
	return NullValue, fmt.Errorf("sqlexec: unhandled expression %T", e)
}

func boolValue(b bool) Value {
	if b {
		return NumValue(1)
	}
	return NumValue(0)
}

func (ex *executor) evalBinary(n Binary, r int32) (Value, error) {
	l, err := ex.evalRow(n.L, r)
	if err != nil {
		return NullValue, err
	}
	if n.Op == "AND" {
		if !l.truthy() {
			return boolValue(false), nil
		}
		rv, err := ex.evalRow(n.R, r)
		if err != nil {
			return NullValue, err
		}
		return boolValue(rv.truthy()), nil
	}
	if n.Op == "OR" {
		if l.truthy() {
			return boolValue(true), nil
		}
		rv, err := ex.evalRow(n.R, r)
		if err != nil {
			return NullValue, err
		}
		return boolValue(rv.truthy()), nil
	}
	rv, err := ex.evalRow(n.R, r)
	if err != nil {
		return NullValue, err
	}
	if l.Null || rv.Null {
		return NullValue, nil
	}
	switch n.Op {
	case "=", "!=":
		var eq bool
		if l.IsNum && rv.IsNum {
			eq = l.Num == rv.Num
		} else {
			eq = l.String() == rv.String()
		}
		if n.Op == "!=" {
			eq = !eq
		}
		return boolValue(eq), nil
	case "<", ">", "<=", ">=":
		var cmp int
		if l.IsNum && rv.IsNum {
			switch {
			case l.Num < rv.Num:
				cmp = -1
			case l.Num > rv.Num:
				cmp = 1
			}
		} else {
			cmp = strings.Compare(l.String(), rv.String())
		}
		switch n.Op {
		case "<":
			return boolValue(cmp < 0), nil
		case ">":
			return boolValue(cmp > 0), nil
		case "<=":
			return boolValue(cmp <= 0), nil
		default:
			return boolValue(cmp >= 0), nil
		}
	case "+", "-", "*", "/":
		if !l.IsNum || !rv.IsNum {
			return NullValue, fmt.Errorf("sqlexec: arithmetic on non-numbers")
		}
		switch n.Op {
		case "+":
			return NumValue(l.Num + rv.Num), nil
		case "-":
			return NumValue(l.Num - rv.Num), nil
		case "*":
			return NumValue(l.Num * rv.Num), nil
		default:
			if rv.Num == 0 {
				return NullValue, nil
			}
			return NumValue(l.Num / rv.Num), nil
		}
	}
	return NullValue, fmt.Errorf("sqlexec: unknown operator %q", n.Op)
}

// evalGroup evaluates a select expression over a group: aggregates fold
// their argument across the group's rows; bare columns take the first
// row's value (the group key case).
func (ex *executor) evalGroup(e Expr, group []int32) (Value, error) {
	switch n := e.(type) {
	case Agg:
		return ex.evalAgg(n, group)
	case Binary:
		l, err := ex.evalGroup(n.L, group)
		if err != nil {
			return NullValue, err
		}
		r, err := ex.evalGroup(n.R, group)
		if err != nil {
			return NullValue, err
		}
		return ex.evalBinary(Binary{Op: n.Op, L: litOf(l), R: litOf(r)}, -1)
	case Unary:
		v, err := ex.evalGroup(n.E, group)
		if err != nil {
			return NullValue, err
		}
		return ex.evalRow(Unary{Op: n.Op, E: litOf(v)}, -1)
	default:
		if len(group) == 0 {
			return NullValue, nil
		}
		return ex.evalRow(e, group[0])
	}
}

// memo caches a row expression's value per distinct row: of[r] is 1 + the
// index of r's value in vals, 0 until r is first evaluated. vals holds each
// distinct result once (by bits, so -0 and NaN stay exact), keeping the
// per-row state pointer-free.
type memo struct {
	e    Expr
	of   []int32
	vals []Value
	idx  map[valKey]int32 // built once vals outgrows a linear scan
}

func (*memo) exprNode() {}

// memoScan is the value-table size up to which intern scans linearly.
const memoScan = 8

type valKey struct {
	bits        uint64
	str         string
	isNum, null bool
}

func keyOf(v Value) valKey { return valKey{math.Float64bits(v.Num), v.Str, v.IsNum, v.Null} }

// intern returns v's index in m.vals, appending v if it is new.
func (m *memo) intern(v Value) int32 {
	k := keyOf(v)
	if m.idx == nil {
		for i, w := range m.vals {
			if keyOf(w) == k {
				return int32(i)
			}
		}
		if len(m.vals) < memoScan {
			m.vals = append(m.vals, v)
			return int32(len(m.vals) - 1)
		}
		m.idx = make(map[valKey]int32, 2*memoScan)
		for i, w := range m.vals {
			m.idx[keyOf(w)] = int32(i)
		}
	}
	i, ok := m.idx[k]
	if !ok {
		i = int32(len(m.vals))
		m.vals = append(m.vals, v)
		m.idx[k] = i
	}
	return i
}

// memoized evaluates m's expression on distinct row r the first time r
// needs it and reads the cached value after that.
func (ex *executor) memoized(m *memo, r int32) (Value, error) {
	if k, ok := m.cached(r); ok {
		return k, nil
	}
	v, err := ex.evalRow(m.e, r)
	if err != nil || r < 0 {
		return v, err
	}
	if m.of == nil {
		m.of = make([]int32, ex.nd)
	}
	m.of[r] = m.intern(v) + 1
	return v, nil
}

// cached returns r's value if it has been evaluated; a nil memo caches
// nothing.
func (m *memo) cached(r int32) (Value, bool) {
	if m != nil && uint(r) < uint(len(m.of)) && m.of[r] > 0 {
		return m.vals[m.of[r]-1], true
	}
	return Value{}, false
}

// litOf re-wraps a computed value as a literal for operator reuse.
func litOf(v Value) Expr {
	if v.Null {
		return Case{Whens: []WhenArm{{Cond: NumLit{V: 0}, Then: NumLit{V: 0}}}} // evaluates to NULL
	}
	if v.IsNum {
		return NumLit{V: v.Num}
	}
	return StrLit{V: v.Str}
}

// evalAgg folds an aggregate over the group in one pass, adding in row
// order; a memoized argument is evaluated once per distinct row.
func (ex *executor) evalAgg(n Agg, group []int32) (Value, error) {
	if n.Star {
		return NumValue(float64(len(group))), nil
	}
	var sum, m float64
	count, nums := 0, 0
	arg, _ := n.Arg.(*memo)
	for _, r := range group {
		v, ok := arg.cached(r)
		var err error
		if !ok {
			v, err = ex.evalRow(n.Arg, r)
		}
		if err != nil {
			return NullValue, err
		}
		if v.Null {
			continue
		}
		count++
		if !v.IsNum {
			if n.Fn != "COUNT" {
				return NullValue, fmt.Errorf("sqlexec: %s over non-numeric values", n.Fn)
			}
			continue
		}
		sum += v.Num
		if nums == 0 || (n.Fn == "MIN" && v.Num < m) || (n.Fn == "MAX" && v.Num > m) {
			m = v.Num
		}
		nums++
	}
	switch n.Fn {
	case "COUNT":
		return NumValue(float64(count)), nil
	case "SUM", "AVG":
		if n.Fn == "SUM" {
			return NumValue(sum), nil
		}
		if nums == 0 {
			return NullValue, nil
		}
		return NumValue(sum / float64(nums)), nil
	case "MIN", "MAX":
		if nums == 0 {
			return NullValue, nil
		}
		return NumValue(m), nil
	}
	return NullValue, fmt.Errorf("sqlexec: unknown aggregate %q", n.Fn)
}
