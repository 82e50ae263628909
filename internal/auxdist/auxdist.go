// Package auxdist implements the auxiliary distribution of Def. 4.5: for a
// pair of rows t1, t2 ~ P_D, the binary vector I with I_k = 1 iff
// t1(a_k) == t2(a_k). Proposition 5 of the paper shows P_I preserves the
// conditional-independence structure of P_D, so the PGM can be learned from
// I-samples instead — far denser and friendlier to CI testing on
// high-cardinality attributes.
//
// Sampling uses the circular-shift trick of FDX [43]: pairing every row i
// with row (i+s) mod n for a handful of random shifts s produces n samples
// per shift in O(n) without materializing the quadratic pair space.
package auxdist

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
	"github.com/guardrail-db/guardrail/internal/par"
)

// Binary is a dense binary dataset implementing stats.Packed: each
// indicator column is stored only bit-packed, 64 samples to a word, and
// unpacked into int32 codes on first use of Codes.
type Binary struct {
	names []string
	bits  [][]uint64
	n     int
	codes [][]int32
	once  []sync.Once
}

// NumVars reports the number of variables.
func (b *Binary) NumVars() int { return len(b.bits) }

// N reports the number of samples.
func (b *Binary) N() int { return b.n }

// Card is always 2.
func (b *Binary) Card(i int) int { return 2 }

// Bits returns column i packed, sample r at bit r%64 of word r/64.
func (b *Binary) Bits(i int) []uint64 { return b.bits[i] }

// Codes returns column i as codes, unpacking it once; it is safe for
// concurrent use.
func (b *Binary) Codes(i int) []int32 {
	b.once[i].Do(func() {
		col := make([]int32, b.n)
		for r := range col {
			col[r] = int32(b.bits[i][r>>6] >> (r & 63) & 1)
		}
		b.codes[i] = col
	})
	return b.codes[i]
}

// Name returns the originating attribute name of variable i.
func (b *Binary) Name(i int) string { return b.names[i] }

// Options controls sampling.
type Options struct {
	// Shifts is the number of circular shifts (default 8); the sample size
	// is Shifts * NumRows.
	Shifts int
	// MaxSamples caps the total sample count (default 200000).
	MaxSamples int
	// Seed drives shift selection.
	Seed int64
	// Workers bounds the concurrency of per-shift sample filling; <= 0
	// uses every core, 1 forces the serial path. The shifts and their
	// start offsets are drawn serially before the fan-out, every shift
	// fills a disjoint segment of the samples, and the words two segments
	// share are merged after it, so the output is byte-identical at any
	// worker count.
	Workers int
	// Obs receives aux.shifts / aux.samples counters and the aux.sample
	// stage timing; nil disables instrumentation at zero cost.
	Obs *obs.Registry
	// Trace parents the sampler's span tree (aux.sample → aux.shift); the
	// zero scope disables tracing at zero cost.
	Trace trace.Scope
}

func (o *Options) defaults() {
	if o.Shifts == 0 {
		o.Shifts = 8
	}
	if o.MaxSamples == 0 {
		o.MaxSamples = 200000
	}
}

// Sample draws from the auxiliary distribution of rel.
func Sample(rel *dataset.Relation, opts Options) (*Binary, error) {
	opts.defaults()
	span := opts.Obs.Histogram("aux.sample").Start()
	defer span.Stop()
	tsp := opts.Trace.Start("aux.sample")
	defer tsp.End()
	n := rel.NumRows()
	if n < 2 {
		return nil, fmt.Errorf("auxdist: need at least 2 rows, have %d", n)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	shifts := pickShifts(n, opts.Shifts, rng)

	perShift := n
	total := perShift * len(shifts)
	if total > opts.MaxSamples {
		perShift = opts.MaxSamples / len(shifts)
		if perShift < 1 {
			perShift = 1
		}
		total = perShift * len(shifts)
	}

	m := rel.NumAttrs()
	out := &Binary{names: append([]string(nil), rel.Attrs()...), bits: make([][]uint64, m), n: total,
		codes: make([][]int32, m), once: make([]sync.Once, m)}
	for c := 0; c < m; c++ {
		out.bits[c] = make([]uint64, (total+63)/64)
	}
	// Start offsets consume the RNG in shift order before the fan-out, so
	// the sample is independent of the worker schedule.
	starts := make([]int, len(shifts))
	for si := range shifts {
		if perShift < n {
			starts[si] = rng.Intn(n)
		}
	}
	shared, err := par.Map(trace.ContextWithScope(context.Background(), opts.Trace.Under(tsp)),
		opts.Workers, len(shifts),
		func(ctx context.Context, si int) ([]edgeWord, error) {
			ssp := trace.FromContext(ctx).Start("aux.shift").
				Int("shift", int64(shifts[si])).Int("samples", int64(perShift))
			edges := fillShift(out.bits, rel, starts[si], shifts[si], si*perShift, (si+1)*perShift)
			ssp.End()
			return edges, nil
		})
	if err != nil {
		return nil, err
	}
	for _, edges := range shared {
		for _, e := range edges {
			out.bits[e.col][e.word] |= e.bits
		}
	}
	opts.Obs.Counter("aux.shifts").Add(int64(len(shifts)))
	opts.Obs.Counter("aux.samples").Add(int64(total))
	return out, nil
}

// edgeWord holds a shift's samples in a word its segment shares with a
// neighbouring segment (or the unused tail of the last word).
type edgeWord struct {
	col, word int
	bits      uint64
}

// fillShift sets the indicator bits of samples [lo, hi): sample lo+k
// pairs row i = (start+k) mod n with row (i+shift) mod n. Words wholly
// inside the segment are written directly; no other segment touches
// them. Words only partly inside are returned for the caller to merge,
// so concurrent shifts never write one word.
func fillShift(bits [][]uint64, rel *dataset.Relation, start, shift, lo, hi int) []edgeWord {
	n := rel.NumRows()
	var edges []edgeWord
	for c := range bits {
		col := rel.Column(c)
		i, j := start, (start+shift)%n
		var word uint64
		for g := lo; g < hi; g++ {
			if col[i] == col[j] {
				word |= 1 << (g & 63)
			}
			if g&63 == 63 || g == hi-1 {
				w := g >> 6
				if w*64 >= lo && w*64+64 <= hi {
					bits[c][w] = word
				} else {
					edges = append(edges, edgeWord{col: c, word: w, bits: word})
				}
				word = 0
			}
			if i++; i == n {
				i = 0
			}
			if j++; j == n {
				j = 0
			}
		}
	}
	return edges
}

// pickShifts draws k distinct shifts in [1, n-1].
func pickShifts(n, k int, rng *rand.Rand) []int {
	if k >= n-1 {
		out := make([]int, 0, n-1)
		for s := 1; s < n; s++ {
			out = append(out, s)
		}
		return out
	}
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		s := 1 + rng.Intn(n-1)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Identity converts rel into a stats.Data view without the auxiliary
// transform — the "identity sampler" ablated in Table 8.
func Identity(rel *dataset.Relation) *Raw { return &Raw{rel: rel} }

// Raw adapts a Relation to stats.Data directly.
type Raw struct {
	rel *dataset.Relation
}

// NumVars reports the number of attributes.
func (r *Raw) NumVars() int { return r.rel.NumAttrs() }

// N reports the number of rows.
func (r *Raw) N() int { return r.rel.NumRows() }

// Card reports the attribute's dictionary size.
func (r *Raw) Card(i int) int { return r.rel.Cardinality(i) }

// Codes returns attribute i's codes.
func (r *Raw) Codes(i int) []int32 { return r.rel.Column(i) }

// Name returns attribute i's name.
func (r *Raw) Name(i int) string { return r.rel.Attr(i) }
