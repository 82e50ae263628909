package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestLintAnalyzeGolden pins the exact stdout, exit status and returned
// error of `lint` and `analyze`, in text and -json form, on the committed
// example constraints plus a program with an out-of-dictionary literal.
// Regenerate with `go test ./cmd/guardrail -run Golden -update` only when
// an output change is intended.
func TestLintAnalyzeGolden(t *testing.T) {
	const data = "../../examples/constraints/postal.csv"
	progs := map[string]string{
		"postal":   "../../examples/constraints/postal.gr",
		"shadowed": "../../examples/constraints/shadowed.gr",
		"ood":      "testdata/ood.gr",
	}
	for _, verb := range []string{"lint", "analyze"} {
		for _, name := range []string{"postal", "shadowed", "ood"} {
			for _, asJSON := range []bool{false, true} {
				args := []string{verb, "-in", data, "-prog", progs[name]}
				golden := fmt.Sprintf("%s-%s", verb, name)
				if asJSON {
					args = append(args, "-json")
					golden += "-json"
				}
				t.Run(golden, func(t *testing.T) {
					var err error
					out := captureStdout(t, func() { err = run(args) })
					got := fmt.Sprintf("%s--- exit %d\n", out, codeOf(err))
					if err != nil {
						got += fmt.Sprintf("--- error: %v\n", err)
					}
					path := filepath.Join("testdata", golden+".golden")
					if *update {
						if werr := os.WriteFile(path, []byte(got), 0o644); werr != nil {
							t.Fatal(werr)
						}
						return
					}
					want, rerr := os.ReadFile(path)
					if rerr != nil {
						t.Fatal(rerr)
					}
					if got != string(want) {
						t.Errorf("%s output drifted from %s\n--- got:\n%s--- want:\n%s", golden, path, got, want)
					}
				})
			}
		}
	}
}
