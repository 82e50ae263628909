package pc

import (
	"fmt"
	"sort"
	"testing"

	"github.com/guardrail-db/guardrail/internal/auxdist"
	"github.com/guardrail-db/guardrail/internal/bn"
)

// TestLearnParallelMatchesSerial: the level-barrier parallel CI sweep must
// produce exactly the serial learner's output — CPDAG, skeleton, sepsets,
// and test count — at every worker count. This is the order-independence
// property of stable PC made into a regression gate.
func TestLearnParallelMatchesSerial(t *testing.T) {
	rel, err := bn.RandomSEM(bn.SEMSpec{Attrs: 10, Seed: 3}).Sample(1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	aux, err := auxdist.Sample(rel, auxdist.Options{Shifts: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Learn(aux, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := Learn(aux, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.CPDAG.String() != serial.CPDAG.String() {
			t.Errorf("workers=%d CPDAG differs:\nserial:\n%s\nparallel:\n%s", workers, serial.CPDAG, got.CPDAG)
		}
		if got.Skeleton.String() != serial.Skeleton.String() {
			t.Errorf("workers=%d skeleton differs", workers)
		}
		if got.Tests != serial.Tests {
			t.Errorf("workers=%d ran %d tests, serial ran %d", workers, got.Tests, serial.Tests)
		}
		if fmtSepSets(got.SepSets) != fmtSepSets(serial.SepSets) {
			t.Errorf("workers=%d sepsets differ:\nserial:  %s\nparallel: %s",
				workers, fmtSepSets(serial.SepSets), fmtSepSets(got.SepSets))
		}
	}
}

// fmtSepSets renders a sepset map in sorted key order for comparison.
func fmtSepSets(sep map[int64][]int) string {
	keys := make([]int64, 0, len(sep))
	for k := range sep {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%d:%v;", k, sep[k])
	}
	return out
}
