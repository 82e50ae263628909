// Package core is the public facade of the Guardrail reproduction: it
// synthesizes integrity constraints from a (possibly noisy) relation and
// enforces them at runtime with the paper's four error-handling strategies
// — raise, ignore, coerce, and rectify (§7).
package core

import (
	"errors"
	"fmt"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/compile"
	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
	"github.com/guardrail-db/guardrail/internal/synth"
)

// Strategy selects how the guard handles a row that violates constraints.
type Strategy int

const (
	// Raise returns an error on the first violating row.
	Raise Strategy = iota
	// Ignore reports violations but leaves rows untouched.
	Ignore
	// Coerce replaces each violating cell with the missing sentinel (NaN),
	// matching pandas' errors="coerce".
	Coerce
	// Rectify overwrites each violating cell with the value the constraint
	// assigns — the paper's novel strategy.
	Rectify
)

// String names the strategy as in the paper.
func (s Strategy) String() string {
	switch s {
	case Raise:
		return "raise"
	case Ignore:
		return "ignore"
	case Coerce:
		return "coerce"
	case Rectify:
		return "rectify"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy converts a strategy name to its value.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "raise":
		return Raise, nil
	case "ignore":
		return Ignore, nil
	case "coerce":
		return Coerce, nil
	case "rectify":
		return Rectify, nil
	}
	return 0, fmt.Errorf("core: unknown strategy %q", s)
}

// Options re-exports the synthesizer configuration.
type Options = synth.Options

// Result re-exports the synthesis result.
type Result = synth.Result

// Synthesize learns integrity constraints from rel — the offline step Bob
// runs ahead of time in Example 1.2.
func Synthesize(rel *dataset.Relation, opts Options) (*Result, error) {
	return synth.Synthesize(rel, opts)
}

// ErrViolation is returned by Raise-mode guards; errors.Is matches it.
var ErrViolation = errors.New("guardrail: integrity constraint violated")

// Guard enforces a synthesized program on incoming rows: an Engine, an
// error-handling strategy, and the per-row scratch the engine leaves to its
// callers. A Guard is not safe for concurrent use; goroutines sharing an
// Engine each build their own Guard on it.
type Guard struct {
	eng      *Engine
	strategy Strategy
	metrics  guardMetrics
	// tr parents guard.apply / stream.csv spans; sampleEvery bounds per-row
	// span volume (one guard.row / stream.row span every N rows). The zero
	// scope disables tracing entirely.
	tr          trace.Scope
	sampleEvery int

	// vbuf is the violation buffer reused across rows; before holds a
	// flagged row's codes on arrival, for the changed-cell count.
	vbuf   []dsl.Violation
	before []int32
}

// guardMetrics holds the guard's pre-resolved counter handles; the zero
// value (nil handles) makes every update a no-op, so an uninstrumented
// guard pays nothing per row.
type guardMetrics struct {
	rowsChecked   *obs.Counter
	rowsFlagged   *obs.Counter
	cellsChanged  *obs.Counter
	streamRows    *obs.Counter
	streamFlagged *obs.Counter
	streamChanged *obs.Counter
}

// NewGuard builds a guard on the AST engine. The program must have been
// validated against the schema of the relations it will check.
func NewGuard(prog *dsl.Program, strategy Strategy) *Guard {
	return NewEngine(prog).Guard(strategy)
}

// Instrument registers the guard's per-strategy counters on reg
// (guard.<strategy>.* for Apply, stream.<strategy>.* for StreamCSV) and
// returns the guard for chaining. A nil registry leaves the guard
// uninstrumented.
func (g *Guard) Instrument(reg *obs.Registry) *Guard {
	s := g.strategy.String()
	g.metrics = guardMetrics{
		rowsChecked:   reg.Counter("guard." + s + ".rows_checked"),
		rowsFlagged:   reg.Counter("guard." + s + ".rows_flagged"),
		cellsChanged:  reg.Counter("guard." + s + ".cells_changed"),
		streamRows:    reg.Counter("stream." + s + ".rows"),
		streamFlagged: reg.Counter("stream." + s + ".flagged"),
		streamChanged: reg.Counter("stream." + s + ".changed"),
	}
	return g
}

// WithTrace attaches a trace scope and returns the guard for chaining.
// Bulk passes emit one guard.apply / stream.csv span; per-row spans are
// sampled 1-in-every to bound tracing overhead on hot streams (every < 1
// selects the default of 1000). Sampling affects only which rows get
// spans — stats and counters are computed for every row regardless.
func (g *Guard) WithTrace(sc trace.Scope, every int) *Guard {
	if every < 1 {
		every = 1000
	}
	g.tr = sc
	g.sampleEvery = every
	return g
}

// Strategy returns the guard's error-handling strategy.
func (g *Guard) Strategy() Strategy { return g.strategy }

// Engine returns the engine the guard runs on.
func (g *Guard) Engine() *Engine { return g.eng }

// Compile moves the guard onto a CompileEngine of its program. When
// translation validation fails the guard keeps its current engine and the
// error says which obligation failed; the returned Validation is non-nil
// when compilation got far enough to record proof obligations.
func (g *Guard) Compile(opts compile.Options) (*compile.Validation, error) {
	eng := CompileEngine(g.eng.prog, opts)
	if eng.fallback != nil {
		return eng.val, eng.fallback
	}
	g.eng = eng
	return eng.val, nil
}

// Step is the guard's one per-row step: it detects row's violations,
// applies the strategy to row in place, and counts the cells whose final
// code differs from their code on arrival. Under Raise a violating row
// returns an error wrapping ErrViolation and is left untouched. The
// returned slice is reused by the next Step or CheckRow call.
func (g *Guard) Step(row []int32) (vs []dsl.Violation, changed int, err error) {
	g.vbuf = g.eng.Detect(row, g.vbuf)
	vs = g.vbuf
	if len(vs) == 0 {
		return nil, 0, nil
	}
	switch g.strategy {
	case Raise:
		return vs, 0, fmt.Errorf("%w: attribute %d expected code %d, got %d",
			ErrViolation, vs[0].Attr, vs[0].Expected, vs[0].Actual)
	case Ignore:
		return vs, 0, nil
	case Coerce:
		g.before = append(g.before[:0], row...)
		for _, v := range vs {
			row[v.Attr] = dataset.Missing
		}
	case Rectify:
		g.before = append(g.before[:0], row...)
		g.eng.Rectify(row)
	default:
		return vs, 0, fmt.Errorf("core: unknown strategy %d", g.strategy)
	}
	for c, code := range g.before {
		if row[c] != code {
			changed++
		}
	}
	return vs, changed, nil
}

// CheckRow applies the guard to one encoded row, possibly mutating it
// (Coerce/Rectify). It reports the violations found; under Raise a non-nil
// error wraps ErrViolation. The returned slice is reused by the next
// CheckRow call.
func (g *Guard) CheckRow(row []int32) ([]dsl.Violation, error) {
	vs, _, err := g.Step(row)
	return vs, err
}

// Report summarizes a relation-level guard pass.
type Report struct {
	// RowsChecked counts rows actually examined: under Raise an abort at
	// row i reports i+1 checked rows, not the relation size.
	RowsChecked  int
	RowsFlagged  int
	CellsChanged int
	// Flagged[i] is true when row i violated at least one constraint.
	Flagged []bool
}

// Apply runs the guard over every row of rel, mutating rel under
// Coerce/Rectify. Under Raise it stops at the first violation; the partial
// Report returned alongside the error covers the rows examined, including
// the violating one.
func (g *Guard) Apply(rel *dataset.Relation) (*Report, error) {
	n := rel.NumRows()
	asp := g.tr.Start("guard.apply").Str("strategy", g.strategy.String()).Str("engine", g.eng.Backend()).Int("rows", int64(n))
	defer asp.End()
	rsc := asp.Scope()
	rep := &Report{Flagged: make([]bool, n)}
	row := make([]int32, rel.NumAttrs())
	for i := 0; i < n; i++ {
		var rsp trace.Span
		if g.tr.Enabled() && i%g.sampleEvery == 0 {
			rsp = rsc.Start("guard.row").Int("row", int64(i))
		}
		row = rel.Row(i, row)
		rep.RowsChecked++
		g.metrics.rowsChecked.Inc()
		vs, changed, err := g.Step(row)
		if len(vs) > 0 {
			rep.RowsFlagged++
			rep.Flagged[i] = true
			g.metrics.rowsFlagged.Inc()
		}
		rsp.End()
		if err != nil {
			return rep, fmt.Errorf("row %d: %w", i, err)
		}
		if changed > 0 {
			for c, code := range row {
				rel.SetCode(i, c, code)
			}
			rep.CellsChanged += changed
			g.metrics.cellsChanged.Add(int64(changed))
		}
	}
	return rep, nil
}
