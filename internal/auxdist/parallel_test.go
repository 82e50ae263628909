package auxdist

import (
	"testing"

	"github.com/guardrail-db/guardrail/internal/bn"
)

// TestSampleParallelMatchesSerial: the auxiliary sample must be
// byte-identical at every worker count — same shifts, same start offsets,
// same packed words and the same unpacked codes — because the RNG draws
// happen serially before the per-shift fan-out, each shift writes only
// the words inside its segment, and the words segments share are merged
// after it. No case has a multiple of 64 samples per shift, so shared
// words occur, and under -race a word written by two workers would show.
func TestSampleParallelMatchesSerial(t *testing.T) {
	rel, err := bn.PostalChain(12).Sample(2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Shifts: 8, Seed: 21},
		// MaxSamples below Shifts*NumRows forces perShift < n, covering the
		// random start-offset path.
		{Shifts: 8, Seed: 21, MaxSamples: 4000},
		// 12 samples per shift: several shifts share every word.
		{Shifts: 8, Seed: 21, MaxSamples: 100},
	} {
		serialOpts := opts
		serialOpts.Workers = 1
		serial, err := Sample(rel, serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			parOpts := opts
			parOpts.Workers = workers
			got, err := Sample(rel, parOpts)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if got.N() != serial.N() || got.NumVars() != serial.NumVars() {
				t.Fatalf("workers=%d: shape %dx%d, want %dx%d", workers, got.N(), got.NumVars(), serial.N(), serial.NumVars())
			}
			for c := 0; c < serial.NumVars(); c++ {
				sb, gb := serial.Bits(c), got.Bits(c)
				if len(gb) != len(sb) {
					t.Fatalf("workers=%d: column %d has %d words, serial %d", workers, c, len(gb), len(sb))
				}
				for w := range sb {
					if sb[w] != gb[w] {
						t.Fatalf("workers=%d: column %d word %d = %#x, serial %#x (maxSamples=%d)",
							workers, c, w, gb[w], sb[w], opts.MaxSamples)
					}
				}
				sc, gc := serial.Codes(c), got.Codes(c)
				for r := range sc {
					if sc[r] != gc[r] {
						t.Fatalf("workers=%d: column %d row %d = %d, serial %d (maxSamples=%d)",
							workers, c, r, gc[r], sc[r], opts.MaxSamples)
					}
				}
			}
		}
	}
}
