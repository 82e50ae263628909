package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Group ties the spans of one pass, job or request together.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Group  int64  `json:"group"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: every method is a no-op and start returns 0.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its ID (IDs start at 1).
func (r *recorder) start(name string, parent int, group int64) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Group: group, Start: now, End: -1})
	return len(r.spans)
}

// end closes the span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already-measured interval as a closed span — for layer
// timings a call reports about itself, such as sqlexec's Result.Stats.
func (r *recorder) add(name string, parent int, group int64, startNS, endNS int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Group: group, Start: startNS, End: endNS})
	r.mu.Unlock()
}

// now is the recorder clock, for callers building spans with add.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSON dumps every span, the form they are written out in at the end
// of a traced run.
func (r *recorder) writeJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(struct {
		Spans []span `json:"spans"`
	}{r.snapshot()})
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals. Children
// that overlap — parallel lanes — are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// layerSelf sums self time by span name over the spans of group.
func layerSelf(spans []span, group int64) map[string]time.Duration {
	var mine []span
	for _, s := range spans {
		if s.Group == group {
			mine = append(mine, s)
		}
	}
	self := selfTimes(mine)
	byName := map[string]time.Duration{}
	for _, s := range mine {
		byName[s.Name] += self[s.ID]
	}
	return byName
}

// wallAgrees reports whether the self times summed over a pass or path
// match the wall time measured around it independently of the spans, to
// within 1% or 2 ms: the spans' bookkeeping is all that lies between them.
func wallAgrees(attributed, wall time.Duration) bool {
	d := attributed - wall
	if d < 0 {
		d = -d
	}
	return d <= max(2*time.Millisecond, wall/100)
}
