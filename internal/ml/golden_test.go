package ml

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/errgen"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// dirtyPostal is a dirty bn.PostalChain sample whose label dictionary holds
// errgen's out-of-domain strings, and its first trainRows rows as the
// training relation: labels that only occur later are classes with no
// positive training example.
func dirtyPostal(t *testing.T) (train, all *dataset.Relation, label int) {
	t.Helper()
	const rows, trainRows = 4000, 800
	all, err := bn.PostalChain(32).Sample(rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := errgen.Inject(all, errgen.Options{Rate: 0.05, RandomStringProb: 0.5, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	first := make([]int, trainRows)
	for i := range first {
		first[i] = i
	}
	return all.SelectRows(first), all, all.AttrIndex("Country")
}

// TestLogisticGolden pins the bits of every class's trained weights and
// the prediction for every row, a missing-valued row and an
// unseen-code row. Regenerate with `go test ./internal/ml -run Golden
// -update` only when a change to the model's output is intended.
func TestLogisticGolden(t *testing.T) {
	train, all, label := dirtyPostal(t)
	seen := make([]bool, train.Cardinality(label))
	for _, c := range train.Column(label) {
		if c >= 0 {
			seen[c] = true
		}
	}
	unseen := 0
	for _, s := range seen {
		if !s {
			unseen++
		}
	}
	if unseen < 2 {
		t.Fatalf("fixture has %d unseen classes, want at least 2", unseen)
	}
	lr, err := TrainLogistic(train, label, LogisticOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "classes %d unseen %d dim %d\n", len(lr.weights), unseen, lr.dim)
	for c, w := range lr.weights {
		h := fnv.New64a()
		for _, x := range w {
			bits := math.Float64bits(x)
			var buf [8]byte
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
		fmt.Fprintf(&b, "weights %d %016x\n", c, h.Sum64())
	}
	b.WriteString("predictions\n")
	row := make([]int32, all.NumAttrs())
	for i := 0; i < all.NumRows(); i++ {
		row = all.Row(i, row)
		fmt.Fprintf(&b, "%d", lr.Predict(row))
		if i%40 == 39 || i == all.NumRows()-1 {
			b.WriteByte('\n')
		} else {
			b.WriteByte(' ')
		}
	}
	missing := make([]int32, all.NumAttrs())
	unseenCodes := make([]int32, all.NumAttrs())
	for a := range missing {
		missing[a] = dataset.Missing
		unseenCodes[a] = int32(all.Cardinality(a) + 7)
	}
	fmt.Fprintf(&b, "missing %d\nunseen-code %d\n", lr.Predict(missing), lr.Predict(unseenCodes))

	checkGolden(t, "logistic.golden", b.String())
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
