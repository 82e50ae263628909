package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestHistLayout checks the bucket layout invariants exhaustively: every
// bucket's bounds map back to the bucket, buckets tile the value space
// with no gaps or overlaps, and relative width stays within the
// 1/histSubCount design bound.
func TestHistLayout(t *testing.T) {
	for i := 0; i < histNumBuckets; i++ {
		lo, hi := histLower(i), histUpper(i)
		if lo > hi {
			t.Fatalf("bucket %d: lower %d > upper %d", i, lo, hi)
		}
		if got := histIndex(lo); got != i {
			t.Fatalf("histIndex(lower(%d)=%d) = %d", i, lo, got)
		}
		if got := histIndex(hi); got != i {
			t.Fatalf("histIndex(upper(%d)=%d) = %d", i, hi, got)
		}
		if i > 0 {
			if prev := histUpper(i - 1); lo != prev+1 {
				t.Fatalf("gap between bucket %d (upper %d) and %d (lower %d)", i-1, prev, i, lo)
			}
		}
		if i < 2*histSubCount {
			if lo != hi {
				t.Fatalf("bucket %d should be single-value, got [%d,%d]", i, lo, hi)
			}
		} else if i < histOverflow {
			// Relative width: (hi-lo)/lo ≤ 1/histSubCount.
			if (hi-lo)*histSubCount > lo {
				t.Fatalf("bucket %d [%d,%d] wider than 1/%d relative", i, lo, hi, histSubCount)
			}
		}
	}
	if histUpper(histOverflow-1) != histMaxNS {
		t.Fatalf("last normal bucket upper = %d, want histMaxNS %d", histUpper(histOverflow-1), histMaxNS)
	}
	if histUpper(histOverflow) != math.MaxInt64 {
		t.Fatalf("overflow upper = %d, want MaxInt64", histUpper(histOverflow))
	}
	if histIndex(histMaxNS+1) != histOverflow {
		t.Fatalf("histMaxNS+1 should overflow, got bucket %d", histIndex(histMaxNS+1))
	}
	if histIndex(math.MaxInt64) != histOverflow {
		t.Fatalf("MaxInt64 should overflow, got bucket %d", histIndex(math.MaxInt64))
	}
	if histIndex(-7) != 0 {
		t.Fatalf("negative values should clamp to bucket 0, got %d", histIndex(-7))
	}
}

// histTestValues draws a latency-shaped sample: mixed magnitudes from
// single-digit nanoseconds through the overflow region.
func histTestValues(rng *rand.Rand, n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		switch rng.Intn(10) {
		case 0:
			vals[i] = rng.Int63n(64) // exact single-value buckets
		case 1:
			vals[i] = histMaxNS + rng.Int63n(1<<20) // overflow
		default:
			vals[i] = rng.Int63n(int64(1) << uint(4+rng.Intn(40)))
		}
	}
	return vals
}

// TestHistShardedMatchesSingleStream is the core mergeable property:
// observations spread across shards produce a snapshot bit-identical to a
// single-stream oracle that saw every value on one shard.
func TestHistShardedMatchesSingleStream(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := histTestValues(rng, 5000)

	oracle := NewHist(1)
	for _, v := range vals {
		oracle.Observe(v)
	}
	want := oracle.Snapshot("lat")

	sharded := NewHist(8)
	for i, v := range vals {
		sharded.ObserveShard(i, v)
	}
	if got := sharded.Snapshot("lat"); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded snapshot differs from single-stream oracle:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestHistQuantileBounds checks Quantile against a sorted-slice
// nearest-rank oracle: the true quantile must lie inside [lo, hi], and
// the interval must respect the layout's relative-error bound.
func TestHistQuantileBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 10, 1000, 4096} {
		vals := histTestValues(rng, n)
		h := NewHist(4)
		for i, v := range vals {
			h.ObserveShard(i, v)
		}
		snap := h.Snapshot("q")
		sorted := append([]int64(nil), vals...)
		for i := range sorted {
			if sorted[i] < 0 {
				sorted[i] = 0
			}
		}
		sortInt64s(sorted)
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int64(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			truth := sorted[rank-1]
			lo, hi := snap.Quantile(q)
			if truth < lo || truth > hi {
				t.Fatalf("n=%d q=%g: true quantile %d outside [%d,%d]", n, q, truth, lo, hi)
			}
			if hi != math.MaxInt64 && lo > 0 && (hi-lo)*histSubCount > lo {
				t.Fatalf("n=%d q=%g: bound [%d,%d] wider than 1/%d relative", n, q, lo, hi, histSubCount)
			}
		}
	}

	var empty HistSnapshot
	if lo, hi := empty.Quantile(0.5); lo != 0 || hi != 0 {
		t.Fatalf("empty quantile = (%d,%d), want (0,0)", lo, hi)
	}
}

func sortInt64s(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestHistExactBelowSubCount: values under 2*histSubCount land in
// single-value buckets, so quantile bounds collapse to the exact value.
func TestHistExactBelowSubCount(t *testing.T) {
	h := NewHist(2)
	for v := int64(0); v < 64; v++ {
		h.Observe(v)
	}
	snap := h.Snapshot("exact")
	// Nearest rank: ⌈0.5·64⌉ = 32 → the 32nd smallest value, which is 31.
	lo, hi := snap.Quantile(0.5)
	if lo != hi || lo != 31 {
		t.Fatalf("p50 of 0..63 = [%d,%d], want exactly [31,31]", lo, hi)
	}
}

func TestHistNilSafe(t *testing.T) {
	var h *Hist
	h.Observe(5)
	h.ObserveShard(3, 5)
	snap := h.Snapshot("nil")
	if snap.Count != 0 || snap.Name != "nil" {
		t.Fatalf("nil snapshot = %+v", snap)
	}
}

// TestHistObserveZeroAlloc pins the hot path: after the shard is
// installed, ObserveShard must not allocate — the serving loop calls it
// once per request under the admission gate.
func TestHistObserveZeroAlloc(t *testing.T) {
	h := NewHist(4)
	h.ObserveShard(2, 100) // install the shard outside the measured region
	if allocs := testing.AllocsPerRun(1000, func() {
		h.ObserveShard(2, 12345)
	}); allocs != 0 {
		t.Fatalf("ObserveShard allocates %v per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(67890)
	}); allocs != 0 {
		t.Fatalf("Observe allocates %v per op, want 0", allocs)
	}
}

// TestHistConcurrent exercises Observe/Snapshot races under -race and
// checks no observation is lost once writers stop.
func TestHistConcurrent(t *testing.T) {
	h := NewHist(8)
	const writers, per = 8, 2000
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				h.ObserveShard(w, int64(i))
			}
		}(w)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				done <- struct{}{}
				return
			default:
				h.Snapshot("race")
			}
		}
	}()
	for i := 0; i < writers; i++ {
		<-done
	}
	close(stop)
	<-done
	snap := h.Snapshot("race")
	if snap.Count != writers*per {
		t.Fatalf("count = %d, want %d", snap.Count, writers*per)
	}
	if snap.SumNS != writers*int64(per)*(per-1)/2 {
		t.Fatalf("sum = %d, want %d", snap.SumNS, writers*int64(per)*(per-1)/2)
	}
}

// TestHistFirstObserveSnapshotRace races a snapshot against a fresh
// shard's first observation. A snapshot that counts the observation must
// also see the min/max it set: Count > 0 implies MinNS ≤ MaxNS and
// non-inverted, non-negative quantile bounds — never the shard's
// MaxInt64/MinInt64 sentinels.
func TestHistFirstObserveSnapshotRace(t *testing.T) {
	trials := 20000
	if testing.Short() {
		trials = 2000
	}
	check := func(s HistSnapshot) {
		if s.Count == 0 {
			return
		}
		if s.MinNS > s.MaxNS {
			t.Fatalf("snapshot with count %d has min %d > max %d", s.Count, s.MinNS, s.MaxNS)
		}
		if lo, hi := s.Quantile(0.5); lo > hi || lo < 0 {
			t.Fatalf("snapshot with count %d has p50 bounds [%d,%d]", s.Count, lo, hi)
		}
	}
	for i := 0; i < trials; i++ {
		h := NewHist(1)
		h.shard(0) // install the shard so the snapshot reads it mid-observe
		done := make(chan struct{})
		go func(v int64) {
			h.Observe(v)
			close(done)
		}(int64(i%4096) + 1)
		for observed := false; !observed; {
			select {
			case <-done:
				observed = true
			default:
			}
			check(h.Snapshot("race"))
		}
	}
}

func BenchmarkHistObserve(b *testing.B) {
	h := NewHist(defaultHistShards())
	var tickets atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		ticket := int(tickets.Add(1))
		v := int64(1)
		for pb.Next() {
			h.ObserveShard(ticket, v)
			v = (v * 2862933555777941757) & histMaxNS
		}
	})
}
