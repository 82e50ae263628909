package synth_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/auxdist"
	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/stats"
	"github.com/guardrail-db/guardrail/internal/synth"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestSynthesisGolden pins, for every Table-2 analog at scale 0.1 and
// seeds 1 and 2, the synthesized program, the coverage bits, the CPDAG,
// the PC test and sepset-skip counts, and the G² bits of a fixed set of
// tests on the auxiliary sample. The determinism tests only compare a
// build against itself; this golden holds across commits, so a change to
// the CI kernel that moved every result consistently still fails here.
// Regenerate with `go test ./internal/synth -run Golden -update` only when
// a change to synthesis output is intended.
func TestSynthesisGolden(t *testing.T) {
	for _, spec := range bn.Registry {
		spec := spec
		name := fmt.Sprintf("synth-%02d", spec.ID)
		t.Run(name, func(t *testing.T) {
			var b strings.Builder
			for _, seed := range []int64{1, 2} {
				rel, err := spec.Generate(0.1, seed)
				if err != nil {
					t.Fatal(err)
				}
				res, err := synth.Synthesize(rel, synth.Options{Seed: seed, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "== %s seed %d rows %d\n", spec.Name, seed, rel.NumRows())
				fmt.Fprintf(&b, "coverage %016x\n", math.Float64bits(res.Coverage))
				fmt.Fprintf(&b, "ci_tests %d sepset_skips %d\n", res.CITests, res.Learned.SepsetSkips)
				fmt.Fprintf(&b, "cpdag %s\n", res.CPDAG)
				aux, err := auxdist.Sample(rel, auxdist.Options{Seed: seed, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				for x := 0; x+2 < aux.NumVars() && x < 4; x++ {
					for _, z := range [][]int{nil, {x + 2}} {
						r, err := stats.GTest(aux, x, x+1, z)
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(&b, "gtest %d %d %v stat %016x p %016x dof %d reliant %t\n",
							x, x+1, z, math.Float64bits(r.Stat), math.Float64bits(r.P), r.Dof, r.Reliant)
					}
				}
				b.WriteString("program\n")
				b.WriteString(dsl.Format(res.Program, rel))
				b.WriteString("\n")
			}
			checkGolden(t, name+".golden", b.String())
		})
	}
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
