package sqlexec

import (
	"fmt"
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
	// model, applying its strategy (raise/ignore/coerce/rectify).
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
	PredictCalls  int
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
	// rows holds the scanned row copies, width codes per row.
	rows  []int32
	width int
	// vals[a] is attribute a's decodeDict, built once per query; nil for
	// attributes the query does not read.
	vals [][]Value
	// labels lists the PREDICT targets in order of first reference;
	// preds[s] holds labels[s]'s per-row predictions.
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

// row returns scanned row i.
func (ex *executor) row(i int) []int32 {
	return ex.rows[i*ex.width : (i+1)*ex.width : (i+1)*ex.width]
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
		if !n.Star {
			n.Arg, err = ex.bind(n.Arg)
		}
		return n, err
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
	rel := ex.rel
	n := rel.NumRows()
	ex.stats.RowsScanned = n
	reg := ex.env.Obs
	reg.Counter("sql.queries").Inc()
	reg.Counter("sql.rows_scanned").Add(int64(n))
	qsp := ex.env.Trace.Start("sql.query").Int("rows", int64(n))
	defer qsp.End()
	tsc := qsp.Scope()

	// Stage 0: guard interception — every incoming row is vetted before
	// anything downstream sees it (Example 1.2). Work on copies so Coerce
	// and Rectify do not mutate the caller's relation.
	ssp := tsc.Start("sql.scan")
	ex.rows = make([]int32, n*ex.width)
	for a := 0; a < ex.width; a++ {
		for i, c := range rel.Column(a)[:n] {
			ex.rows[i*ex.width+a] = c
		}
	}
	ssp.End()
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
		for i := 0; i < n; i++ {
			if _, _, err := ex.env.Guard.Step(ex.row(i)); err != nil {
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
	live := make([]int, 0, n)
	for i := 0; i < n; i++ {
		keep := true
		for _, c := range pre {
			v, err := ex.evalRowIdx(c, ex.row(i), -1)
			if err != nil {
				psp.End()
				return nil, err
			}
			if !v.truthy() {
				keep = false
				break
			}
		}
		if keep {
			live = append(live, i)
		}
	}
	ex.stats.RowsFiltered = n - len(live)
	reg.Counter("sql.rows_filtered").Add(int64(ex.stats.RowsFiltered))
	psp.Int("filtered", int64(ex.stats.RowsFiltered)).End()

	// Stage 2: compute needed predictions for surviving rows, one model
	// call per live row and label.
	ex.preds = make([][]int32, len(ex.labels))
	for slot, label := range ex.labels {
		model := ex.env.Models[label]
		col := make([]int32, n)
		msp := reg.Stage(tsc, "sql.inference").Str("label", label).Int("rows", int64(len(live)))
		for _, i := range live {
			col[i] = model.Predict(ex.row(i))
			ex.stats.PredictCalls++
		}
		ex.stats.InferenceTime += msp.End()
		ex.preds[slot] = col
	}
	reg.Counter("sql.predict_calls").Add(int64(ex.stats.PredictCalls))

	// Stage 3: residual WHERE.
	final := live
	if len(post) > 0 {
		final = make([]int, 0, len(live))
		for _, i := range live {
			keep := true
			for _, c := range post {
				v, err := ex.evalRowIdx(c, ex.row(i), i)
				if err != nil {
					return nil, err
				}
				if !v.truthy() {
					keep = false
					break
				}
			}
			if keep {
				final = append(final, i)
			}
		}
	}

	// Stage 4: grouping.
	type grp struct {
		key  string
		rows []int
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
		byKey := map[string]int{}
		var kb []byte
		for _, i := range final {
			kb = kb[:0]
			for _, g := range q.GroupBy {
				v, err := ex.evalRowIdx(g, ex.row(i), i)
				if err != nil {
					return nil, err
				}
				kb = append(v.appendTo(kb), 0)
			}
			gi, ok := byKey[string(kb)]
			if !ok {
				gi = len(groups)
				groups = append(groups, grp{key: string(kb)})
				byKey[groups[gi].key] = gi
			}
			groups[gi].rows = append(groups[gi].rows, i)
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

// evalRowIdx evaluates e against one row; idx supplies the row's index for
// prediction lookups (-1 when predictions are unavailable).
func (ex *executor) evalRowIdx(e Expr, row []int32, idx int) (Value, error) {
	switch n := e.(type) {
	case NumLit:
		return NumValue(n.V), nil
	case StrLit:
		return StrValue(n.V), nil
	case boundCol:
		if n.Pred {
			if idx < 0 {
				return NullValue, fmt.Errorf("sqlexec: prediction for %q unavailable in this context", n.Name)
			}
			return ex.vals[n.attr][ex.preds[n.slot][idx]+1], nil
		}
		return ex.vals[n.attr][row[n.attr]+1], nil
	case Unary:
		v, err := ex.evalRowIdx(n.E, row, idx)
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
		return ex.evalBinary(n, row, idx)
	case Case:
		for _, w := range n.Whens {
			c, err := ex.evalRowIdx(w.Cond, row, idx)
			if err != nil {
				return NullValue, err
			}
			if c.truthy() {
				return ex.evalRowIdx(w.Then, row, idx)
			}
		}
		if n.Else != nil {
			return ex.evalRowIdx(n.Else, row, idx)
		}
		return NullValue, nil
	case Agg:
		return NullValue, fmt.Errorf("sqlexec: aggregate %s in row context", n.Fn)
	case InList:
		v, err := ex.evalRowIdx(n.E, row, idx)
		if err != nil {
			return NullValue, err
		}
		if v.Null {
			return NullValue, nil
		}
		found := false
		for _, item := range n.Items {
			iv, err := ex.evalRowIdx(item, row, idx)
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

func (ex *executor) evalBinary(n Binary, row []int32, idx int) (Value, error) {
	l, err := ex.evalRowIdx(n.L, row, idx)
	if err != nil {
		return NullValue, err
	}
	if n.Op == "AND" {
		if !l.truthy() {
			return boolValue(false), nil
		}
		r, err := ex.evalRowIdx(n.R, row, idx)
		if err != nil {
			return NullValue, err
		}
		return boolValue(r.truthy()), nil
	}
	if n.Op == "OR" {
		if l.truthy() {
			return boolValue(true), nil
		}
		r, err := ex.evalRowIdx(n.R, row, idx)
		if err != nil {
			return NullValue, err
		}
		return boolValue(r.truthy()), nil
	}
	r, err := ex.evalRowIdx(n.R, row, idx)
	if err != nil {
		return NullValue, err
	}
	if l.Null || r.Null {
		return NullValue, nil
	}
	switch n.Op {
	case "=", "!=":
		var eq bool
		if l.IsNum && r.IsNum {
			eq = l.Num == r.Num
		} else {
			eq = l.String() == r.String()
		}
		if n.Op == "!=" {
			eq = !eq
		}
		return boolValue(eq), nil
	case "<", ">", "<=", ">=":
		var cmp int
		if l.IsNum && r.IsNum {
			switch {
			case l.Num < r.Num:
				cmp = -1
			case l.Num > r.Num:
				cmp = 1
			}
		} else {
			cmp = strings.Compare(l.String(), r.String())
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
		if !l.IsNum || !r.IsNum {
			return NullValue, fmt.Errorf("sqlexec: arithmetic on non-numbers")
		}
		switch n.Op {
		case "+":
			return NumValue(l.Num + r.Num), nil
		case "-":
			return NumValue(l.Num - r.Num), nil
		case "*":
			return NumValue(l.Num * r.Num), nil
		default:
			if r.Num == 0 {
				return NullValue, nil
			}
			return NumValue(l.Num / r.Num), nil
		}
	}
	return NullValue, fmt.Errorf("sqlexec: unknown operator %q", n.Op)
}

// evalGroup evaluates a select expression over a group: aggregates fold
// their argument across the group's rows; bare columns take the first
// row's value (the group key case).
func (ex *executor) evalGroup(e Expr, group []int) (Value, error) {
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
		return ex.evalBinary(Binary{Op: n.Op, L: litOf(l), R: litOf(r)}, nil, -1)
	case Unary:
		v, err := ex.evalGroup(n.E, group)
		if err != nil {
			return NullValue, err
		}
		return ex.evalRowIdx(Unary{Op: n.Op, E: litOf(v)}, nil, -1)
	default:
		if len(group) == 0 {
			return NullValue, nil
		}
		return ex.evalRowIdx(e, ex.row(group[0]), group[0])
	}
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
// order.
func (ex *executor) evalAgg(n Agg, group []int) (Value, error) {
	if n.Star {
		return NumValue(float64(len(group))), nil
	}
	var sum, m float64
	count, nums := 0, 0
	for _, i := range group {
		v, err := ex.evalRowIdx(n.Arg, ex.row(i), i)
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
