package auxdist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/dataset"
)

func rel(t *testing.T) *dataset.Relation {
	t.Helper()
	r, err := bn.PostalChain(8).Sample(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSampleShape(t *testing.T) {
	r := rel(t)
	b, err := Sample(r, Options{Shifts: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumVars() != r.NumAttrs() {
		t.Fatalf("vars = %d, want %d", b.NumVars(), r.NumAttrs())
	}
	if b.N() != 4*r.NumRows() {
		t.Fatalf("samples = %d, want %d", b.N(), 4*r.NumRows())
	}
	for i := 0; i < b.NumVars(); i++ {
		if b.Card(i) != 2 {
			t.Fatalf("card = %d", b.Card(i))
		}
		if b.Name(i) != r.Attr(i) {
			t.Fatalf("name %q != %q", b.Name(i), r.Attr(i))
		}
		for _, c := range b.Codes(i) {
			if c != 0 && c != 1 {
				t.Fatalf("non-binary code %d", c)
			}
		}
	}
}

func TestSampleCap(t *testing.T) {
	r := rel(t)
	b, err := Sample(r, Options{Shifts: 8, MaxSamples: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.N() > 100 {
		t.Fatalf("cap exceeded: %d", b.N())
	}
	if b.N() == 0 {
		t.Fatal("no samples drawn")
	}
}

func TestSampleDeterministicPerSeed(t *testing.T) {
	r := rel(t)
	a, _ := Sample(r, Options{Shifts: 4, Seed: 9})
	b, _ := Sample(r, Options{Shifts: 4, Seed: 9})
	for v := 0; v < a.NumVars(); v++ {
		ca, cb := a.Codes(v), b.Codes(v)
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("sampling not deterministic at var %d row %d", v, i)
			}
		}
	}
}

// TestSampleMatchesDefinition recomputes every indicator from Def. 4.5
// and the circular-shift pairing, drawing shifts and start offsets as
// Sample does, and checks the packed words bit by bit, bits past N
// included (they must be zero).
func TestSampleMatchesDefinition(t *testing.T) {
	r := rel(t)
	n := r.NumRows()
	for _, opts := range []Options{
		{Shifts: 4, Seed: 1, Workers: 2},
		{Shifts: 8, Seed: 2, MaxSamples: 1000, Workers: 2},
		{Shifts: 8, Seed: 3, MaxSamples: 100, Workers: 4},
	} {
		b, err := Sample(r, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(opts.Seed))
		shifts := pickShifts(n, opts.Shifts, rng)
		perShift := b.N() / len(shifts)
		starts := make([]int, len(shifts))
		for si := range starts {
			if perShift < n {
				starts[si] = rng.Intn(n)
			}
		}
		for c := 0; c < b.NumVars(); c++ {
			col := r.Column(c)
			want := make([]uint64, len(b.Bits(c)))
			for si, s := range shifts {
				for k := 0; k < perShift; k++ {
					i := (starts[si] + k) % n
					if col[i] == col[(i+s)%n] {
						g := si*perShift + k
						want[g>>6] |= 1 << (g & 63)
					}
				}
			}
			for w, got := range b.Bits(c) {
				if got != want[w] {
					t.Fatalf("opts %+v column %d word %d = %#x, want %#x", opts, c, w, got, want[w])
				}
			}
		}
	}
}

func TestSampleTooFewRows(t *testing.T) {
	r := dataset.New("t", []string{"a"})
	r.AppendRow([]string{"x"})
	if _, err := Sample(r, Options{}); err == nil {
		t.Fatal("expected error for single-row relation")
	}
}

func TestSampleFunctionalDependencyPreserved(t *testing.T) {
	// City is a function of PostalCode, so whenever the indicator for
	// PostalCode is 1, the indicator for City must also be 1 (Def. 4.5:
	// equal inputs force equal deterministic outputs).
	r := rel(t)
	b, err := Sample(r, Options{Shifts: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pc, city := b.Codes(0), b.Codes(1)
	for i := range pc {
		if pc[i] == 1 && city[i] != 1 {
			t.Fatalf("FD broken in aux sample %d: PostalCode equal but City differs", i)
		}
	}
}

func TestIdentityAdapter(t *testing.T) {
	r := rel(t)
	id := Identity(r)
	if id.NumVars() != r.NumAttrs() || id.N() != r.NumRows() {
		t.Fatal("identity shape mismatch")
	}
	if id.Card(0) != r.Cardinality(0) {
		t.Fatal("identity cardinality mismatch")
	}
	if id.Name(2) != r.Attr(2) {
		t.Fatal("identity name mismatch")
	}
	if &id.Codes(1)[0] != &r.Column(1)[0] {
		t.Fatal("identity should share column storage")
	}
}

// Property: sample count never exceeds both Shifts*NumRows and MaxSamples.
func TestSampleSizeProperty(t *testing.T) {
	r := rel(t)
	f := func(shiftsRaw, capRaw uint8) bool {
		shifts := 1 + int(shiftsRaw)%10
		maxS := 10 + int(capRaw)*10
		b, err := Sample(r, Options{Shifts: shifts, MaxSamples: maxS, Seed: 5})
		if err != nil {
			return false
		}
		return b.N() <= shifts*r.NumRows() && b.N() <= maxS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
