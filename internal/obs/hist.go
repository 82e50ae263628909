package obs

import (
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// Hist is the exact mergeable latency histogram — the registry's only
// histogram kind, backing both stage timers (via Registry.Stage) and
// request latencies: a log-linear bucket layout over nanoseconds
// (HDR-style) holding an exact count for every observation ever made, with
// no sampling and no recency window.
//
// The bucket layout is a fixed global constant, not a per-histogram
// parameter, so shards merge by summing bucket counts.
// Quantile queries return exact bounds: the true q-quantile of everything
// ever observed provably lies in the returned [lo, hi] interval, and the
// interval's relative width is at most 1/histSubCount (~3.1%) — values
// below 2*histSubCount ns land in single-value buckets and are exact.
//
// Observe is lock-free: a bucket increment is one atomic add on a
// per-shard counter array, so a scrape (which merges shards into a
// snapshot) never stalls the hot path. Shards follow the same
// single-writer philosophy as trace lanes: callers that own an exclusive
// ticket (the serve admission slot) spread contention with ObserveShard;
// everything else uses Observe (shard 0). Shard placement never affects
// the merged result — only cache-line contention.
//
// The nil *Hist is a no-op, like every other obs handle.
type Hist struct {
	shards []atomic.Pointer[histShard] // power-of-two length, lazily filled
}

// Bucket layout: buckets 0..2*histSubCount-1 hold exactly one value each
// (0..63 ns); above that, each power-of-two octave splits into
// histSubCount linear sub-buckets, so bucket width grows with magnitude
// while relative error stays ≤ 1/histSubCount. Values above histMaxNS
// (~2.4 h) fall into a single overflow bucket whose upper bound is +Inf;
// the exact observed maximum is still tracked separately.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits // 32 linear sub-buckets per octave
	histMaxExp   = 42               // top tracked octave: up to 2^43-1 ns

	histNumBuckets = histSubCount + (histMaxExp-histSubBits+1)*histSubCount + 1
	histOverflow   = histNumBuckets - 1

	// histMaxNS is the largest value the normal buckets track.
	histMaxNS = int64(1)<<(histMaxExp+1) - 1
)

// histIndex maps a value to its bucket. Negative values clamp to 0.
func histIndex(v int64) int {
	if v < histSubCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	if exp > histMaxExp {
		return histOverflow
	}
	// Top histSubBits bits after the leading one select the sub-bucket;
	// for exp == histSubBits this degenerates to the identity, stitching
	// seamlessly onto the single-value buckets below histSubCount.
	return (exp-histSubBits)*histSubCount + int(v>>uint(exp-histSubBits))
}

// histLower returns bucket i's smallest value.
func histLower(i int) int64 {
	if i < 2*histSubCount {
		return int64(i)
	}
	o := i/histSubCount - 1
	s := i % histSubCount
	return int64(histSubCount+s) << uint(o)
}

// histUpper returns bucket i's largest value (inclusive); +Inf (MaxInt64)
// for the overflow bucket.
func histUpper(i int) int64 {
	if i >= histOverflow {
		return math.MaxInt64
	}
	return histLower(i+1) - 1
}

// histShard is one writer shard: an atomic counter per bucket plus the
// exact aggregate moments. ~10 KiB, allocated on first use so idle shards
// (and idle vector children) cost one pointer.
type histShard struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histNumBuckets]atomic.Int64
}

func newHistShard() *histShard {
	s := &histShard{}
	s.min.Store(math.MaxInt64)
	s.max.Store(math.MinInt64)
	return s
}

// defaultHistShards sizes a histogram's shard array to the next power of
// two at or above GOMAXPROCS, capped at 64.
func defaultHistShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewHist builds a histogram with the given shard count (rounded up to a
// power of two, minimum 1). Registry.Histogram is the usual constructor.
func NewHist(shards int) *Hist {
	p := 1
	for p < shards {
		p <<= 1
	}
	return &Hist{shards: make([]atomic.Pointer[histShard], p)}
}

// shard returns shard i's storage, installing it on first use. The CAS
// race on first touch is benign: the loser's allocation is dropped.
func (h *Hist) shard(i int) *histShard {
	p := &h.shards[i&(len(h.shards)-1)]
	s := p.Load()
	if s == nil {
		s = newHistShard()
		if !p.CompareAndSwap(nil, s) {
			s = p.Load()
		}
	}
	return s
}

// Observe records one value on shard 0. Safe from any goroutine; callers
// holding an exclusive ticket should prefer ObserveShard to spread
// cache-line contention. No-op on a nil histogram.
func (h *Hist) Observe(v int64) { h.ObserveShard(0, v) }

// ObserveShard records one value on the shard selected by ticket (reduced
// modulo the shard count). Lock-free: one atomic add per bucket/moment.
//
// Ordering condition: min/max are widened before the bucket add, and the
// bucket add precedes the count add; Snapshot reads in the reverse order
// (count, buckets, then min/max). So any snapshot that sees an
// observation's count or bucket also sees min/max covering it — a
// snapshot with Count > 0 never shows the shard's MaxInt64/MinInt64
// sentinels, and every visible bucket lies inside [MinNS, MaxNS].
func (h *Hist) ObserveShard(ticket int, v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	s := h.shard(ticket)
	for {
		m := s.min.Load()
		if v >= m || s.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := s.max.Load()
		if v <= m || s.max.CompareAndSwap(m, v) {
			break
		}
	}
	s.buckets[histIndex(v)].Add(1)
	s.sum.Add(v)
	s.count.Add(1)
}

// Span is one open pipeline stage: the trace span and the histogram of
// the same name, timed by one pair of clock reads. It does not embed
// trace.Span, whose promoted Int(..).End() would skip the histogram.
type Span struct {
	sp trace.Span
	h  *Hist
	t0 time.Time // set only when sp is disabled
}

// Stage opens the stage name: a trace span under sc and the histogram
// name. A nil registry and a disabled scope record nothing, but the clock
// is still read so End can report the elapsed time to its caller.
func (r *Registry) Stage(sc trace.Scope, name string) Span {
	s := Span{sp: sc.Start(name), h: r.Histogram(name)}
	if !sc.Enabled() {
		s.t0 = time.Now()
	}
	return s
}

// Int attaches an integer attribute to the trace span; chainable.
func (s Span) Int(key string, v int64) Span {
	s.sp = s.sp.Int(key, v)
	return s
}

// Str attaches a string attribute to the trace span; chainable.
func (s Span) Str(key, v string) Span {
	s.sp = s.sp.Str(key, v)
	return s
}

// Scope returns a scope for child spans of the stage.
func (s Span) Scope() trace.Scope { return s.sp.Scope() }

// End closes the trace span, records the elapsed time in the histogram,
// and returns it.
func (s Span) End() time.Duration {
	d := s.sp.End()
	if !s.t0.IsZero() {
		d = time.Since(s.t0)
	}
	s.h.Observe(int64(d))
	return d
}

// Label is one key/value dimension of a labeled metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// HistBucket is one non-empty bucket of a snapshot: the bucket's
// inclusive upper bound in nanoseconds (MaxInt64 for the overflow bucket)
// and its exact (non-cumulative) count.
type HistBucket struct {
	UpperNS int64 `json:"le_ns"`
	Count   int64 `json:"count"`
}

// HistSnapshot is the merged, point-in-time view of a Hist: exact
// aggregate moments plus the sparse non-empty buckets in ascending order.
type HistSnapshot struct {
	Name    string       `json:"name"`
	Labels  []Label      `json:"labels,omitempty"`
	Count   int64        `json:"count"`
	SumNS   int64        `json:"sum_ns"`
	MinNS   int64        `json:"min_ns"`
	MaxNS   int64        `json:"max_ns"`
	P50NS   int64        `json:"p50_ns"`
	P90NS   int64        `json:"p90_ns"`
	P99NS   int64        `json:"p99_ns"`
	P999NS  int64        `json:"p999_ns"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot merges every shard into one exact view. Concurrent Observes
// land either side of the atomic reads — each observation is counted
// exactly once in some snapshot taken after it. Each shard is read in the
// reverse of ObserveShard's write order (count, buckets, then min/max).
func (h *Hist) Snapshot(name string) HistSnapshot {
	s := HistSnapshot{Name: name}
	if h == nil {
		return s
	}
	var dense [histNumBuckets]int64
	min, max := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range h.shards {
		sh := h.shards[i].Load()
		if sh == nil {
			continue
		}
		s.Count += sh.count.Load()
		s.SumNS += sh.sum.Load()
		for b := range sh.buckets {
			dense[b] += sh.buckets[b].Load()
		}
		if m := sh.min.Load(); m < min {
			min = m
		}
		if m := sh.max.Load(); m > max {
			max = m
		}
	}
	if s.Count > 0 {
		s.MinNS, s.MaxNS = min, max
	}
	for b, c := range dense {
		if c != 0 {
			s.Buckets = append(s.Buckets, HistBucket{UpperNS: histUpper(b), Count: c})
		}
	}
	s.finalize()
	return s
}

// finalize recomputes the quantile-bound fields from the buckets.
func (s *HistSnapshot) finalize() {
	_, s.P50NS = s.Quantile(0.50)
	_, s.P90NS = s.Quantile(0.90)
	_, s.P99NS = s.Quantile(0.99)
	_, s.P999NS = s.Quantile(0.999)
}

// Quantile returns exact bounds on the q-quantile (nearest-rank over
// every observation ever made): the true quantile lies in [lo, hi]. The
// bounds come from the bucket containing the rank-⌈q·count⌉ observation,
// tightened by the exact min/max. An empty snapshot returns (0, 0).
func (s HistSnapshot) Quantile(q float64) (lo, hi int64) {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0, 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			lo = histLower(histIndex(b.UpperNS))
			if lo < s.MinNS {
				lo = s.MinNS
			}
			hi = b.UpperNS
			if hi > s.MaxNS {
				hi = s.MaxNS
			}
			return lo, hi
		}
	}
	return s.MinNS, s.MaxNS // unreachable when Σ bucket counts == Count
}
