package incr

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// skewedTable draws n rows over the given cardinalities; each variable
// puts extra mass on code shift%card and leaves a missing value with
// probability missing.
func skewedTable(cards []int, n int, seed int64, shift int, missing float64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := New(cards)
	row := make([]int32, len(cards))
	for r := 0; r < n; r++ {
		for i, c := range cards {
			switch {
			case rng.Float64() < missing:
				row[i] = -1
			case rng.Intn(3) == 0:
				row[i] = int32(shift % c)
			default:
				row[i] = int32(rng.Intn(c))
			}
		}
		t.Add(row)
	}
	return t
}

// TestDriftGolden pins DetectDrift's per-variable statistic and p-value
// bits, dof and verdict on fixed baseline/window pairs: a stationary
// pair, a shifted pair, a grown dictionary (marginals of different
// lengths) with missing mass on both sides, an empty window, a
// single-category variable, heavy missing-value mass, and a ring
// aggregate against the next window. Regenerate with
// `go test ./internal/stats/incr -run Golden -update` only when a change
// to drift verdicts is intended.
func TestDriftGolden(t *testing.T) {
	cards := []int{3, 4, 1, 6}
	ring := NewRing(3)
	for w := 0; w < 5; w++ {
		if _, err := ring.Push(skewedTable(cards, 300, int64(40+w), 0, 0.02)); err != nil {
			t.Fatal(err)
		}
	}
	grown := skewedTable([]int{5, 6, 1, 8}, 700, 31, 4, 0.05)
	pairs := []struct {
		name             string
		baseline, window *Table
	}{
		{"stationary", skewedTable(cards, 2000, 1, 0, 0.02), skewedTable(cards, 800, 2, 0, 0.02)},
		{"shifted", skewedTable(cards, 2000, 3, 0, 0.02), skewedTable(cards, 800, 4, 2, 0.02)},
		{"grown-dictionary", skewedTable(cards, 2000, 5, 0, 0.05), grown},
		{"empty-window", skewedTable(cards, 2000, 6, 0, 0.02), New(cards)},
		{"single-category", skewedTable(cards, 2000, 9, 0, 0), skewedTable(cards, 800, 10, 1, 0)},
		{"missing-mass", skewedTable(cards, 2000, 7, 0, 0.01), skewedTable(cards, 800, 8, 0, 0.4)},
		{"ring-aggregate", ring.Aggregate(), skewedTable(cards, 300, 45, 1, 0.02)},
	}
	var b strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&b, "== %s baseline %d window %d\n", p.name, p.baseline.N(), p.window.N())
		for _, alpha := range []float64{1e-4, 0.05} {
			for _, v := range DetectDrift(p.baseline, p.window, alpha).Vars {
				fmt.Fprintf(&b, "alpha %g var %d stat %016x p %016x dof %d drifted %t\n",
					alpha, v.Var, math.Float64bits(v.Stat), math.Float64bits(v.P), v.Dof, v.Drifted)
			}
		}
	}
	checkGolden(t, "drift.golden", b.String())
}

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: line %d is\n  %s\nwant\n  %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}
