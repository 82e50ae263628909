package synth

import (
	"fmt"

	"github.com/guardrail-db/guardrail/internal/auxdist"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/analysis"
	"github.com/guardrail-db/guardrail/internal/pc"
	"github.com/guardrail-db/guardrail/internal/smt/sat"
	"github.com/guardrail-db/guardrail/internal/stats/incr"
)

// IncrOptions tunes the incremental synthesis driver.
type IncrOptions struct {
	// WindowRows is how many observed rows fill one window (default 256).
	WindowRows int
	// MaxWindows caps the sliding ring; older windows are subtracted out
	// of the aggregate statistics (default 8).
	MaxWindows int
	// DriftAlpha is the p-value threshold of the per-variable
	// baseline-vs-window homogeneity test; at or below it a variable
	// counts as drifted and re-synthesis triggers (default 1e-3).
	DriftAlpha float64
	// Synth configures the underlying synthesis runs. Obs and Trace also
	// receive the driver's drift.* counters and window spans.
	Synth Options
}

func (o *IncrOptions) defaults() {
	if o.WindowRows <= 0 {
		o.WindowRows = 256
	}
	if o.MaxWindows <= 0 {
		o.MaxWindows = 8
	}
	if o.DriftAlpha == 0 {
		o.DriftAlpha = 1e-3
	}
}

// ChangeEvent records one re-synthesis trigger: which columns drifted
// and whether the constraint program actually changed, identified by
// semantic fingerprints comparable with `guardrail analyze`.
type ChangeEvent struct {
	// Seq numbers events from 1 in trigger order.
	Seq int `json:"seq"`
	// Row is the total number of observed rows when the trigger fired.
	Row int `json:"row"`
	// DriftedColumns names the attributes whose marginals drifted.
	DriftedColumns []string `json:"drifted_columns"`
	// OldFingerprint / NewFingerprint are the semantic fingerprints of
	// the program before and after re-synthesis.
	OldFingerprint string `json:"old_fingerprint"`
	NewFingerprint string `json:"new_fingerprint"`
	// Changed reports whether the fingerprints differ — a constraint
	// genuinely changed, not just a re-learn that confirmed the old one.
	Changed bool `json:"changed"`
}

// IncrStatus is a point-in-time snapshot of the driver, the payload of
// `guardrail resynth -json` and the serve /v1/drift endpoint.
type IncrStatus struct {
	Rows        int    `json:"rows"`
	LiveRows    int    `json:"live_rows"`
	Windows     int    `json:"windows"`
	Triggers    int    `json:"triggers"`
	Resyntheses int    `json:"resyntheses"`
	Changes     int    `json:"changes"`
	Synthesized bool   `json:"synthesized"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Events lists every re-synthesis trigger in order.
	Events []ChangeEvent `json:"events,omitempty"`
}

// Incremental drives drift-aware synthesis over a growing relation:
// rows stream in, every WindowRows of them snapshot into a mergeable
// contingency table pushed onto a sliding ring, and each window is
// tested for marginal drift against the baseline statistics behind the
// current program. On drift it re-synthesizes over the live window view
// — PC reads its G² tests straight off the merged ring aggregate and
// warm-starts from the previous skeleton, re-deciding only edges with a
// drifted endpoint — and emits a ChangeEvent diffing old and new
// programs by semantic fingerprint.
//
// Not safe for concurrent use; callers serialize access (the serve
// drift monitor wraps one in a mutex).
type Incremental struct {
	rel  *dataset.Relation
	data *auxdist.Raw // rel as stats.Data
	opts IncrOptions

	ring     *incr.Ring
	spare    *incr.Table // the last expired window, rebuilt as the next one
	baseline *incr.Table // statistics behind the current program
	prev     *pc.Result  // warm-start seed from the last synthesis
	program  *dsl.Program
	fp       uint64

	start   int // first row (of rel) of the window currently filling
	dropped int // rows trimmed off rel's front; rel's row r is stream row dropped+r
	events  []ChangeEvent
	codes   []int32 // Observe's row of interned codes, reused

	windows, triggers, resyntheses, changes int
}

// NewIncremental builds a driver observing into rel. Rows already in
// rel count toward the first window. The driver keeps only the rows its
// ring still holds plus the window filling, so rel's rows past that are
// dropped from its front as windows expire; its dictionaries are kept.
func NewIncremental(rel *dataset.Relation, opts IncrOptions) *Incremental {
	opts.defaults()
	return &Incremental{
		rel:  rel,
		data: auxdist.Identity(rel),
		opts: opts,
		ring: incr.NewRing(opts.MaxWindows),
	}
}

// Rel exposes the relation (for encoders that intern through the same
// dictionaries). It holds the live rows only, see NewIncremental.
func (inc *Incremental) Rel() *dataset.Relation { return inc.rel }

// Program returns the current synthesized program (nil before the first
// window completes).
func (inc *Incremental) Program() *dsl.Program { return inc.program }

// FingerprintHex renders the current program's semantic fingerprint the
// way `guardrail analyze -json` does.
func (inc *Incremental) FingerprintHex() string {
	if inc.program == nil {
		return ""
	}
	return fmt.Sprintf("%016x", inc.fp)
}

// Cells reports how many distinct rows the live windows' merged
// statistics hold; it is bounded by the ring's rows.
func (inc *Incremental) Cells() int {
	if agg := inc.ring.Aggregate(); agg != nil {
		return agg.Cells()
	}
	return 0
}

// Events returns every re-synthesis trigger so far.
func (inc *Incremental) Events() []ChangeEvent { return inc.events }

// Status snapshots the driver.
func (inc *Incremental) Status() IncrStatus {
	return IncrStatus{
		Rows:        inc.dropped + inc.rel.NumRows(),
		LiveRows:    inc.ring.N(),
		Windows:     inc.windows,
		Triggers:    inc.triggers,
		Resyntheses: inc.resyntheses,
		Changes:     inc.changes,
		Synthesized: inc.program != nil,
		Fingerprint: inc.FingerprintHex(),
		Events:      append([]ChangeEvent(nil), inc.events...),
	}
}

// Observe interns one row of string values ("" for missing) into the
// driver's relation and observes its codes with ObserveCodes.
func (inc *Incremental) Observe(values []string) ([]ChangeEvent, error) {
	if len(values) != inc.rel.NumAttrs() {
		return nil, fmt.Errorf("synth: observed row has %d values, relation has %d attributes", len(values), inc.rel.NumAttrs())
	}
	codes := inc.codes[:0]
	for i, v := range values {
		c := dataset.Missing
		if v != "" {
			c = inc.rel.Intern(i, v)
		}
		codes = append(codes, c)
	}
	inc.codes = codes
	return inc.ObserveCodes(codes)
}

// ObserveCodes appends one row of codes in the relation's dictionaries
// (dataset.Missing for missing) and flushes a window when enough rows
// accumulated. It returns the change events the observation produced —
// nil on the vast majority of calls. A code the relation's dictionary
// does not hold is an error, and the row is not observed.
func (inc *Incremental) ObserveCodes(codes []int32) ([]ChangeEvent, error) {
	if len(codes) != inc.rel.NumAttrs() {
		return nil, fmt.Errorf("synth: observed row has %d codes, relation has %d attributes", len(codes), inc.rel.NumAttrs())
	}
	for i, c := range codes {
		if c < dataset.Missing || int(c) >= inc.rel.Cardinality(i) {
			return nil, fmt.Errorf("synth: code %d of attribute %q is not in its dictionary", c, inc.rel.Attr(i))
		}
	}
	if err := inc.rel.AppendCodes(codes); err != nil {
		return nil, err
	}
	if inc.rel.NumRows()-inc.start < inc.opts.WindowRows {
		return nil, nil
	}
	return inc.flushWindow()
}

// Flush forces the partially filled window through the pipeline — used
// at end of stream so trailing rows still participate.
func (inc *Incremental) Flush() ([]ChangeEvent, error) {
	if inc.rel.NumRows() == inc.start {
		return nil, nil
	}
	return inc.flushWindow()
}

// flushWindow snapshots rows [start, NumRows) into a table, slides the
// ring, and runs drift detection against the baseline.
func (inc *Incremental) flushWindow() ([]ChangeEvent, error) {
	obsReg := inc.opts.Synth.Obs
	lo, hi := inc.start, inc.rel.NumRows()
	row := inc.dropped + hi // the stream position, for spans and events
	sp := inc.opts.Synth.Trace.Start("drift.window").
		Int("lo", int64(inc.dropped+lo)).Int("hi", int64(row))
	defer sp.End()
	msp := obsReg.Stage(sp.Scope(), "drift.window_merge")
	win := inc.spare
	if win == nil {
		win = incr.New(nil)
	}
	win.SetRows(inc.data, lo, hi)
	expired, err := inc.ring.Push(win)
	inc.spare = expired
	msp.End()
	if err != nil {
		return nil, fmt.Errorf("synth: window merge: %w", err)
	}
	inc.start = hi
	inc.trim()
	inc.windows++
	obsReg.Counter("drift.windows").Inc()

	if inc.program == nil {
		// First complete window: cold initial synthesis. Not counted as a
		// re-synthesis — there was no program to change.
		if err := inc.synthesize(nil, nil); err != nil {
			return nil, err
		}
		return nil, nil
	}

	rep := incr.DetectDrift(inc.baseline, win, inc.opts.DriftAlpha)
	if !rep.Any() {
		return nil, nil
	}
	inc.triggers++
	obsReg.Counter("drift.triggers").Inc()
	sp.Bool("drift", true)

	oldFP := inc.fp
	drifted := make([]string, 0, 1)
	for _, v := range rep.DriftedVars() {
		drifted = append(drifted, inc.rel.Attr(v))
	}
	if err := inc.synthesize(inc.prev, rep.Dirty(inc.rel.NumAttrs())); err != nil {
		return nil, err
	}
	inc.resyntheses++
	obsReg.Counter("drift.resyntheses").Inc()
	ev := ChangeEvent{
		Seq:            len(inc.events) + 1,
		Row:            row,
		DriftedColumns: drifted,
		OldFingerprint: fmt.Sprintf("%016x", oldFP),
		NewFingerprint: fmt.Sprintf("%016x", inc.fp),
		Changed:        inc.fp != oldFP,
	}
	if ev.Changed {
		inc.changes++
		obsReg.Counter("drift.changes").Inc()
	}
	inc.events = append(inc.events, ev)
	return []ChangeEvent{ev}, nil
}

// trim drops the rows older than the ring's oldest window: no later
// window or synthesis reads them.
func (inc *Incremental) trim() {
	dead := inc.rel.NumRows() - inc.ring.N()
	inc.rel.DropFront(dead)
	inc.dropped += dead
	inc.start -= dead
}

// synthesize (re-)runs the pipeline over the live window view: the rows
// still inside the ring, with PC testing against the merged aggregate
// table. The baseline statistics reset to that aggregate afterwards.
func (inc *Incremental) synthesize(warm *pc.Result, dirty []bool) error {
	hi := inc.rel.NumRows()
	lo := hi - inc.ring.N()
	rows := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		rows = append(rows, r)
	}
	view := inc.rel.SelectRows(rows)

	sOpts := inc.opts.Synth
	sOpts.IdentitySampler = true // PC reads the tables, which hold raw rows
	sOpts.CI = inc.ring.Aggregate()
	sOpts.WarmStart = warm
	sOpts.Dirty = dirty
	res, err := Synthesize(view, sOpts)
	if err != nil {
		return fmt.Errorf("synth: incremental synthesis: %w", err)
	}
	inc.program = res.Program
	inc.prev = res.Learned
	inc.baseline = inc.ring.Aggregate().Clone()
	// Fingerprint over the full relation's domains — exactly what
	// `guardrail analyze` computes for a batch-synthesized program, so
	// the stationary-stream e2e can compare the two directly.
	canon, _ := analysis.Canon(inc.program, sat.DomainsOf(inc.rel))
	inc.fp = analysis.Fingerprint(canon)
	return nil
}
