package incr

import (
	"math"
	"math/rand"
	"testing"

	"github.com/guardrail-db/guardrail/internal/auxdist"
	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/pc"
	"github.com/guardrail-db/guardrail/internal/stats"
)

// randData builds a random discrete dataset with dependencies and a
// sprinkling of missing values.
func randData(t *testing.T, n int, seed int64) stats.Data {
	t.Helper()
	rel, err := bn.Cancer().Sample(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return auxdist.Identity(rel)
}

func sameBits(a, b stats.TestResult) bool {
	return math.Float64bits(a.Stat) == math.Float64bits(b.Stat) &&
		math.Float64bits(a.P) == math.Float64bits(b.P) &&
		a.Dof == b.Dof && a.Reliant == b.Reliant
}

// allPairTests runs a spread of CI tests on both testers and asserts
// bit-identical results.
func assertTesterIdentity(t *testing.T, got, want stats.CITester) {
	t.Helper()
	nv := want.NumVars()
	for x := 0; x < nv; x++ {
		for y := x + 1; y < nv; y++ {
			var zs [][]int
			zs = append(zs, nil)
			for z := 0; z < nv; z++ {
				if z != x && z != y {
					zs = append(zs, []int{z})
				}
			}
			for _, z := range zs {
				w, err := want.Test(x, y, z)
				if err != nil {
					t.Fatal(err)
				}
				g, err := got.Test(x, y, z)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(g, w) {
					t.Fatalf("test(%d,%d|%v) diverged: table (%x,%x,%d,%v) vs batch (%x,%x,%d,%v)",
						x, y, z,
						math.Float64bits(g.Stat), math.Float64bits(g.P), g.Dof, g.Reliant,
						math.Float64bits(w.Stat), math.Float64bits(w.P), w.Dof, w.Reliant)
				}
			}
		}
	}
}

func TestMergeEqualsBatch(t *testing.T) {
	d := randData(t, 3000, 21)
	whole := FromData(d)

	// Any partition of the rows merges back to the batch table.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		cuts := []int{0}
		for cuts[len(cuts)-1] < d.N() {
			cuts = append(cuts, cuts[len(cuts)-1]+1+rng.Intn(900))
		}
		cuts[len(cuts)-1] = d.N()
		merged := New(CardsOf(whole))
		for i := 0; i+1 < len(cuts); i++ {
			if err := merged.Merge(FromRows(d, cuts[i], cuts[i+1])); err != nil {
				t.Fatal(err)
			}
		}
		if !merged.Equal(whole) {
			t.Fatalf("trial %d: merged partition != batch table", trial)
		}
	}
	// And the merged table's tests are bit-identical to GTest over rows.
	assertTesterIdentity(t, whole, stats.Tester(d))
}

func TestSubtractInverseOfMerge(t *testing.T) {
	d := randData(t, 2000, 22)
	a := FromRows(d, 0, 1200)
	b := FromRows(d, 1200, 2000)
	orig := a.Clone()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Equal(orig) {
		t.Fatal("merge was a no-op")
	}
	if err := a.Subtract(b); err != nil {
		t.Fatal(err)
	}
	// Cards may have grown under the merge (dictionaries never shrink),
	// so compare cells and counts via tests rather than Equal.
	if a.N() != orig.N() || a.Cells() != orig.Cells() {
		t.Fatalf("subtract did not invert merge: n %d vs %d, cells %d vs %d",
			a.N(), orig.N(), a.Cells(), orig.Cells())
	}
	assertTesterIdentity(t, a, orig)

	// Subtracting mass that was never merged is an error.
	if err := orig.Subtract(b); err == nil {
		t.Fatal("subtracting a never-merged table must fail")
	}
	// The failed subtract must not have corrupted orig.
	if orig.N() != 1200 {
		t.Fatalf("failed subtract mutated the table: n=%d", orig.N())
	}
}

func TestRingSlidingWindowBitIdentical(t *testing.T) {
	d := randData(t, 4000, 23)
	const winRows, winCap = 250, 6
	ring := NewRing(winCap)
	for w := 0; (w+1)*winRows <= d.N(); w++ {
		if _, err := ring.Push(FromRows(d, w*winRows, (w+1)*winRows)); err != nil {
			t.Fatal(err)
		}
		lo := 0
		if live := w + 1; live > winCap {
			lo = (live - winCap) * winRows
		}
		hi := (w + 1) * winRows
		fresh := FromRows(d, lo, hi)
		if !ring.Aggregate().Equal(fresh) {
			t.Fatalf("window %d: ring aggregate != from-scratch recompute over rows [%d,%d)", w, lo, hi)
		}
		// Spot-check a CI test against a raw row scan of the same range.
		want, err := stats.GTest(Slice(d, lo, hi), 0, 2, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ring.Aggregate().Test(0, 2, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("window %d: sliding test diverged from row scan", w)
		}
	}
	if ring.Len() != winCap {
		t.Fatalf("ring kept %d windows, cap %d", ring.Len(), winCap)
	}
}

// TestPCOnTablesMatchesBatch pins the acceptance criterion: PC run over
// merged windowed tables produces the same CPDAG as a from-scratch run
// on the equivalent concatenated data, at workers 1, 4, and 8.
func TestPCOnTablesMatchesBatch(t *testing.T) {
	d := randData(t, 6000, 24)
	merged := New(CardsOf(stats.Tester(d)))
	const win = 500
	for lo := 0; lo < d.N(); lo += win {
		hi := lo + win
		if hi > d.N() {
			hi = d.N()
		}
		if err := merged.Merge(FromRows(d, lo, hi)); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4, 8} {
		batch, err := pc.Learn(d, pc.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		windowed, err := pc.LearnFrom(merged, pc.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if windowed.CPDAG.String() != batch.CPDAG.String() {
			t.Fatalf("workers=%d: CPDAG from merged tables diverged:\nwindowed %s\nbatch    %s",
				workers, windowed.CPDAG, batch.CPDAG)
		}
		if windowed.Tests != batch.Tests {
			t.Fatalf("workers=%d: test counts diverged: %d vs %d", workers, windowed.Tests, batch.Tests)
		}
	}
}

func TestDetectDrift(t *testing.T) {
	d := randData(t, 6000, 26)
	baseline := FromRows(d, 0, 3000)
	stationary := FromRows(d, 3000, 6000)
	rep := DetectDrift(baseline, stationary, 1e-4)
	if rep.Any() {
		t.Fatalf("stationary split flagged drift: %+v", rep.DriftedVars())
	}

	// Shift one variable's marginal hard: point-mass on a single code.
	nv := baseline.NumVars()
	shifted := New(CardsOf(baseline))
	row := make([]int32, nv)
	for r := 0; r < 800; r++ {
		for i := 0; i < nv; i++ {
			row[i] = d.Codes(i)[3000+r]
		}
		row[1] = 0
		shifted.Add(row)
	}
	rep = DetectDrift(baseline, shifted, 1e-4)
	if !rep.Any() {
		t.Fatal("hard marginal shift not detected")
	}
	found := false
	for _, v := range rep.DriftedVars() {
		if v == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("shifted variable 1 not among drifted vars %v", rep.DriftedVars())
	}
	dirty := rep.Dirty(nv)
	if !dirty[1] {
		t.Fatal("Dirty vector missed the shifted variable")
	}

	// Empty window: nothing to compare, no drift.
	if DetectDrift(baseline, New(CardsOf(baseline)), 0.5).Any() {
		t.Fatal("empty window flagged drift")
	}
}

func TestRingMisc(t *testing.T) {
	if NewRing(1).N() != 0 {
		t.Fatal("empty ring has observations")
	}
	d := randData(t, 600, 27)
	ring := NewRing(2)
	w0 := FromRows(d, 0, 200)
	if exp, err := ring.Push(w0); err != nil || exp != nil {
		t.Fatalf("push 0: %v %v", exp, err)
	}
	if _, err := ring.Push(FromRows(d, 200, 400)); err != nil {
		t.Fatal(err)
	}
	exp, err := ring.Push(FromRows(d, 400, 600))
	if err != nil {
		t.Fatal(err)
	}
	if exp != w0 {
		t.Fatal("expired window is not the oldest")
	}
	if ring.N() != 400 || ring.Window(0).N() != 200 {
		t.Fatalf("ring bookkeeping off: n=%d", ring.N())
	}
}

// TestDriftAlignsGrownCategory pins slot alignment when the window's
// dictionary grew: a window category the baseline never saw must be
// compared with the baseline's (empty) slot for that category, not with
// the baseline's missing mass. Compared by position, the two marginals
// below are identical and nothing drifts; aligned by category, all of
// the baseline's missing mass sits where the window has none, and the
// window's new category where the baseline has none.
func TestDriftAlignsGrownCategory(t *testing.T) {
	baseline, window := New([]int{2}), New([]int{3})
	baseline.AddN([]int32{0}, 100)
	baseline.AddN([]int32{1}, 100)
	baseline.AddN([]int32{-1}, 100)
	window.AddN([]int32{0}, 100)
	window.AddN([]int32{1}, 100)
	window.AddN([]int32{2}, 100)
	v := DetectDrift(baseline, window, 1e-6).Vars[0]
	if !v.Drifted || v.Dof != 3 {
		t.Fatalf("new category against baseline missing mass: %+v, want drifted with dof 3", v)
	}
	// Either argument order lays the slots out the same way.
	if r := DetectDrift(window, baseline, 1e-6).Vars[0]; r.Stat != v.Stat || r.Dof != v.Dof {
		t.Fatalf("swapped sides: %+v, want stat %v dof %d", r, v.Stat, v.Dof)
	}
	// With the missing mass on both sides the grown slot alone differs.
	window.AddN([]int32{-1}, 100)
	baseline.AddN([]int32{0}, 100)
	if v := DetectDrift(baseline, window, 1e-6).Vars[0]; !v.Drifted {
		t.Fatalf("category present only in the window went unflagged: %+v", v)
	}
}

// TestTableChurnStaysCompact slides a ring over a stream whose every row
// is a new assignment, so each expired window leaves only emptied cells
// behind in the aggregate. The aggregate must stay compact: its arrays
// hold a bounded multiple of the live cells, and its statistics equal a
// table built from the live rows alone.
func TestTableChurnStaysCompact(t *testing.T) {
	const winRows, winCap = 50, 3
	ring := NewRing(winCap)
	var rows [][]int32
	for w := 0; w < 200; w++ {
		win := New([]int{1, 1})
		for r := 0; r < winRows; r++ {
			row := []int32{int32(w*winRows + r), int32(r % 7)}
			win.Add(row)
			rows = append(rows, row)
		}
		if _, err := ring.Push(win); err != nil {
			t.Fatal(err)
		}
		agg := ring.Aggregate()
		if live := agg.Cells(); live != min(w+1, winCap)*winRows {
			t.Fatalf("window %d: %d live cells", w, live)
		}
		if held := len(agg.mass); held > 2*agg.Cells()+64 {
			t.Fatalf("window %d: %d cells held for %d live", w, held, agg.Cells())
		}
	}
	fresh := New([]int{1, 1})
	for _, row := range rows[len(rows)-winCap*winRows:] {
		fresh.Add(row)
	}
	if !ring.Aggregate().Equal(fresh) {
		t.Fatal("compacted aggregate differs from a table of the live rows")
	}
}
