// Package trace is the hierarchical timing layer of the observability
// stack: where internal/obs answers *how much* (counters, stage
// histograms), trace answers *where the wall-clock went* — which worker
// lane ran which task, how the level-barrier phases overlap, and what the
// critical path through learn → enum → fill → select is.
//
// The data model is an explicit-parent span tree: every span records its
// own ID, its parent's ID, a name, a start offset from the tracer epoch, a
// duration, typed attributes, and instant events. Parents are IDs rather
// than an implicit per-goroutine stack, so a child started on one worker
// lane can hang under a parent started on another — exactly what a
// fork-join pipeline produces.
//
// Spans are recorded into per-lane append-only buffers. A lane is owned by
// exactly one goroutine at a time (lane 0 by the coordinating goroutine,
// lane w+1 by pool worker w; see internal/par), so the hot path takes no
// locks: starting a span is an append plus an atomic ID increment, and
// ending one writes the duration in place. Buffers are merged only at
// flush (Records, WriteChrome, CriticalPath), after the pool has
// quiesced.
//
// Like the rest of the obs stack, the disabled path is free: a nil
// *Tracer hands out nil *Lane values, the zero Scope and zero Span are
// no-ops, and none of them read the clock or allocate
// (TestTraceDisabledZeroAlloc pins this).
package trace

import (
	"context"
	"sort"
	"sync/atomic"
	"time"
)

// SpanID identifies one span within a tracer. 0 means "no span" and is
// the parent of root spans.
type SpanID uint64

// AttrKind discriminates the typed attribute union.
type AttrKind uint8

// Attribute kinds.
const (
	KindString AttrKind = iota
	KindInt
	KindFloat
	KindBool
)

// Attr is one typed key/value attribute attached to a span.
type Attr struct {
	Key   string
	Kind  AttrKind
	Str   string
	Int   int64
	Float float64
	Bool  bool
}

// Value returns the attribute's payload as the dynamic type matching its
// kind — the shape exporters want.
func (a Attr) Value() any {
	switch a.Kind {
	case KindInt:
		return a.Int
	case KindFloat:
		return a.Float
	case KindBool:
		return a.Bool
	}
	return a.Str
}

// openDur marks a span record whose End has not run yet.
const openDur = int64(-1)

// Record is one completed span or instant event as stored in a lane
// buffer. Start is nanoseconds since the tracer epoch; Dur is -1 while
// the span is still open and 0 for instant events.
type Record struct {
	ID      SpanID
	Parent  SpanID
	Name    string
	Lane    int
	Start   int64
	Dur     int64
	Instant bool
	Attrs   []Attr
}

// End reports the record's end offset (ns since epoch); open spans and
// instants end where they start.
func (r Record) End() int64 {
	if r.Dur > 0 {
		return r.Start + r.Dur
	}
	return r.Start
}

// Tracer owns the span ID sequence, the trace epoch, and one buffer per
// lane. Lane 0 belongs to the coordinating goroutine; lanes 1..workers to
// the pool workers. The nil tracer is fully disabled.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	lanes  []*Lane
}

// New builds a tracer with workers+1 lanes: lane 0 for the coordinating
// goroutine and one lane per pool worker. workers < 1 is treated as 1.
func New(workers int) *Tracer {
	if workers < 1 {
		workers = 1
	}
	t := &Tracer{epoch: time.Now(), lanes: make([]*Lane, workers+1)}
	for i := range t.lanes {
		t.lanes[i] = &Lane{tr: t, tid: i}
	}
	return t
}

// NumLanes reports the lane count (workers + 1); 0 on a nil tracer.
func (t *Tracer) NumLanes() int {
	if t == nil {
		return 0
	}
	return len(t.lanes)
}

// Lane returns lane i. A nil tracer or an out-of-range index returns nil
// — never a shared fallback lane, since two goroutines writing one buffer
// would race. Callers treat a nil lane as "tracing off".
func (t *Tracer) Lane(i int) *Lane {
	if t == nil || i < 0 || i >= len(t.lanes) {
		return nil
	}
	return t.lanes[i]
}

// Root is the scope a command hands to the pipeline: lane 0, no parent.
// Nil-safe — the zero Scope from a nil tracer disables all span calls.
func (t *Tracer) Root() Scope { return Scope{lane: t.Lane(0)} }

// Records merges every lane's buffer into one slice ordered by start
// offset (ties by ID). Call it only after the traced work has quiesced —
// lanes are single-writer, and the merge reads them without locks.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	var out []Record
	for _, l := range t.lanes {
		out = append(out, l.recs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Lane is one worker's append-only span buffer. All methods must be
// called from the single goroutine that owns the lane; the nil lane is a
// no-op.
type Lane struct {
	tr   *Tracer
	tid  int
	recs []Record
}

// Tracer returns the owning tracer; nil on a nil lane.
func (l *Lane) Tracer() *Tracer {
	if l == nil {
		return nil
	}
	return l.tr
}

// ID reports the lane's track number (the Chrome trace tid).
func (l *Lane) ID() int {
	if l == nil {
		return 0
	}
	return l.tid
}

// Scope binds the lane to a parent span, giving call sites one value to
// thread around.
func (l *Lane) Scope(parent SpanID) Scope { return Scope{lane: l, parent: parent} }

// start appends an open span record and returns its handle.
func (l *Lane) start(name string, parent SpanID) Span {
	if l == nil {
		return Span{}
	}
	id := SpanID(l.tr.nextID.Add(1))
	now := time.Now()
	l.recs = append(l.recs, Record{
		ID: id, Parent: parent, Name: name, Lane: l.tid,
		Start: now.Sub(l.tr.epoch).Nanoseconds(), Dur: openDur,
	})
	return Span{lane: l, idx: int32(len(l.recs) - 1), id: id, t0: now}
}

// instant appends a zero-duration event record.
func (l *Lane) instant(name string, parent SpanID, attrs []Attr) {
	if l == nil {
		return
	}
	l.recs = append(l.recs, Record{
		ID: SpanID(l.tr.nextID.Add(1)), Parent: parent, Name: name, Lane: l.tid,
		Start: time.Since(l.tr.epoch).Nanoseconds(), Instant: true, Attrs: attrs,
	})
}

// Span is an open span handle. The zero Span (from a nil lane) is a no-op
// that never reads the clock. Spans are value types: they index into the
// lane buffer, so copying a handle is safe, but End must run on the
// lane's owning goroutine like every other lane operation.
type Span struct {
	lane *Lane
	idx  int32
	id   SpanID
	t0   time.Time
}

// ID returns the span's ID (0 for the zero span), usable as an explicit
// parent.
func (s Span) ID() SpanID { return s.id }

// Scope returns a scope for children of this span on the same lane.
func (s Span) Scope() Scope { return Scope{lane: s.lane, parent: s.id} }

// End closes the span, recording the elapsed duration, and returns it.
func (s Span) End() time.Duration {
	if s.lane == nil {
		return 0
	}
	d := time.Since(s.t0)
	s.lane.recs[s.idx].Dur = int64(d)
	return d
}

// attr appends one attribute to the open span.
func (s Span) attr(a Attr) Span {
	if s.lane != nil {
		r := &s.lane.recs[s.idx]
		r.Attrs = append(r.Attrs, a)
	}
	return s
}

// Int attaches an integer attribute; chainable, no-op on the zero span.
func (s Span) Int(key string, v int64) Span {
	return s.attr(Attr{Key: key, Kind: KindInt, Int: v})
}

// Str attaches a string attribute.
func (s Span) Str(key, v string) Span {
	return s.attr(Attr{Key: key, Kind: KindString, Str: v})
}

// Float attaches a float attribute.
func (s Span) Float(key string, v float64) Span {
	return s.attr(Attr{Key: key, Kind: KindFloat, Float: v})
}

// Bool attaches a boolean attribute.
func (s Span) Bool(key string, v bool) Span {
	return s.attr(Attr{Key: key, Kind: KindBool, Bool: v})
}

// Event records an instant event under this span.
func (s Span) Event(name string) {
	if s.lane != nil {
		s.lane.instant(name, s.id, nil)
	}
}

// Scope is the unit call sites thread through Options structs and
// contexts: which lane to record on and which span to parent under. The
// zero Scope is disabled; every method is then a free no-op.
type Scope struct {
	lane   *Lane
	parent SpanID
}

// Enabled reports whether spans started from this scope are recorded.
func (s Scope) Enabled() bool { return s.lane != nil }

// Lane returns the scope's lane (nil when disabled).
func (s Scope) Lane() *Lane { return s.lane }

// Start opens a span named name under the scope's parent.
func (s Scope) Start(name string) Span { return s.lane.start(name, s.parent) }

// OnLane moves the scope to another lane, keeping the parent — how the
// worker pool attributes a task's spans to the worker that ran it.
func (s Scope) OnLane(l *Lane) Scope {
	if l == nil {
		return Scope{}
	}
	return Scope{lane: l, parent: s.parent}
}

// Event records an instant event under the scope's parent.
func (s Scope) Event(name string) { s.lane.instant(name, s.parent, nil) }

// EventStr records an instant event carrying one string attribute.
func (s Scope) EventStr(name, key, val string) {
	if s.lane == nil {
		return
	}
	s.lane.instant(name, s.parent, []Attr{{Key: key, Kind: KindString, Str: val}})
}

// EventInt records an instant event carrying one integer attribute.
func (s Scope) EventInt(name, key string, val int64) {
	if s.lane == nil {
		return
	}
	s.lane.instant(name, s.parent, []Attr{{Key: key, Kind: KindInt, Int: val}})
}

// scopeKey carries a Scope through a context.
type scopeKey struct{}

// ContextWithScope installs sc into ctx. A disabled scope returns ctx
// unchanged, keeping the disabled path allocation-free.
func ContextWithScope(ctx context.Context, sc Scope) context.Context {
	if sc.lane == nil {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, sc)
}

// FromContext extracts the scope installed by ContextWithScope; the zero
// (disabled) scope when absent.
func FromContext(ctx context.Context) Scope {
	sc, _ := ctx.Value(scopeKey{}).(Scope)
	return sc
}
