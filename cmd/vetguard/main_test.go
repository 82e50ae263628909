package main

import (
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/vet"
)

// countByCheck buckets findings by check name.
func countByCheck(fs []vet.Finding) map[string]int {
	out := map[string]int{}
	for _, f := range fs {
		out[f.Check]++
	}
	return out
}

// TestBuggyFixture: every seeded bug class is flagged, the annotated
// instances are suppressed.
func TestBuggyFixture(t *testing.T) {
	findings, err := analyze([]string{"./testdata/src/buggy"})
	if err != nil {
		t.Fatal(err)
	}
	got := countByCheck(findings)
	want := map[string]int{
		"maporder":    9,
		"globalrand":  2,
		"ignorederr":  3,
		"nakedgo":     3,
		"regcopy":     5,
		"spanleak":    3,
		"lockbalance": 2,
		"deaderr":     2,
	}
	for check, n := range want {
		if got[check] != n {
			t.Errorf("%s: got %d findings, want %d\nall: %v", check, got[check], n, findings)
		}
	}
	total := 0
	for _, n := range want {
		total += n
	}
	if len(findings) != total {
		t.Errorf("total findings = %d, want %d (is the //vetguard:ignore annotation honored?)\n%v", len(findings), total, findings)
	}
	floatFlagged := false
	for _, f := range findings {
		if f.Check == "maporder" && strings.Contains(f.Message, "float") {
			floatFlagged = true
		}
	}
	if !floatFlagged {
		t.Error("float accumulation over map iteration not flagged")
	}
	for _, f := range findings {
		if !strings.Contains(f.Pos.Filename, "buggy") {
			t.Errorf("finding outside fixture: %v", f)
		}
		if f.Pos.Line <= 0 || f.Message == "" {
			t.Errorf("malformed finding: %v", f)
		}
	}
}

// TestFlowSensitiveFindings pins the cases only the CFG/dataflow layer
// can see: the two lockbalance leaks, the two deaderr shapes, and the
// maporder escapes the syntactic fast path provably misses (plain-form
// float accumulation, a scalar escaping to output after the loop, and
// accumulation through an unsorted key slice in a second loop).
func TestFlowSensitiveFindings(t *testing.T) {
	findings, err := analyze([]string{"./testdata/src/buggy"})
	if err != nil {
		t.Fatal(err)
	}
	wantSubstrings := []string{
		"g.mu.Lock (line 184) is still held",
		"g.mu.RLock (line 201) is still held",
		"overwritten at line 215 before it is ever read",
		"this return discards the error in err (assigned at line 225)",
		"float g accumulates values in map-iteration order (plain assignment form)",
		"fmt.Println is called with a value derived from map iteration",
		"float total accumulates values derived from map iteration",
	}
	for _, want := range wantSubstrings {
		found := false
		for _, f := range findings {
			if strings.Contains(f.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding containing %q\nall: %v", want, findings)
		}
	}
}

// TestCleanFixture: exonerated idioms (collect-then-sort, per-iteration
// accumulators, seeded sources, handled errors, explicit-discard Close,
// balanced locks, read-before-overwrite errors) pass.
func TestCleanFixture(t *testing.T) {
	findings, err := analyze([]string{"./testdata/src/clean"})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("clean fixture produced findings: %v", findings)
	}
}

// TestRegistryCompleteness is the check-registry gate: every registered
// check must prove itself both ways — at least one finding on the buggy
// fixture (the check can fire) and zero on the clean fixture (it knows
// the exonerating idiom). A check that cannot meet both has no
// regression anchor and silently rots.
func TestRegistryCompleteness(t *testing.T) {
	buggy, err := analyze([]string{"./testdata/src/buggy"})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := analyze([]string{"./testdata/src/clean"})
	if err != nil {
		t.Fatal(err)
	}
	buggyCounts := countByCheck(buggy)
	cleanCounts := countByCheck(clean)
	checks := vet.Checks()
	if len(checks) == 0 {
		t.Fatal("no checks registered")
	}
	for _, c := range checks {
		if c.Doc == "" {
			t.Errorf("check %s has no Doc string", c.Name)
		}
		if buggyCounts[c.Name] == 0 {
			t.Errorf("check %s has no buggy-fixture finding; add one so the check stays anchored", c.Name)
		}
		if cleanCounts[c.Name] != 0 {
			t.Errorf("check %s fires on the clean fixture: %v", c.Name, clean)
		}
	}
	// And the reverse: no finding from an unregistered check name.
	known := map[string]bool{}
	for _, c := range checks {
		known[c.Name] = true
	}
	for _, f := range buggy {
		if !known[f.Check] {
			t.Errorf("finding from unregistered check %q: %v", f.Check, f)
		}
	}
}

// TestFindingOrderDeterministic: the emitted order must not depend on
// the order packages were named, walked, or on any map iteration inside
// the checks — file, line, column, check, message is a total order.
func TestFindingOrderDeterministic(t *testing.T) {
	patterns := []string{"./testdata/src/buggy", "./testdata/src/clean", "./testdata/src/internal/par"}
	reversed := []string{"./testdata/src/internal/par", "./testdata/src/clean", "./testdata/src/buggy"}

	render := func(fs []vet.Finding) string {
		var b strings.Builder
		for _, f := range fs {
			fmt.Fprintln(&b, f)
		}
		return b.String()
	}

	a, err := analyze(patterns)
	if err != nil {
		t.Fatal(err)
	}
	b, err := analyze(reversed)
	if err != nil {
		t.Fatal(err)
	}
	if render(a) != render(b) {
		t.Errorf("package order changed emission:\n--- forward ---\n%s--- reversed ---\n%s", render(a), render(b))
	}

	// Shuffling findings and re-sorting must reproduce the same bytes:
	// the comparator is a total order with no ties left to input order.
	for seed := int64(1); seed <= 5; seed++ {
		shuffled := append([]vet.Finding(nil), a...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		vet.SortFindings(shuffled)
		if render(shuffled) != render(a) {
			t.Fatalf("seed %d: shuffle+sort changed emission", seed)
		}
	}
}

// TestParFixtureExempt: a package whose import path ends in internal/par
// may use go statements — that is where the worker pool lives.
func TestParFixtureExempt(t *testing.T) {
	findings, err := analyze([]string{"./testdata/src/internal/par"})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("internal/par fixture should be exempt from nakedgo: %v", findings)
	}
}

// TestDebugFixtureExempt: the debug HTTP server package may launch its
// process-lifetime server goroutine without routing through the pool.
func TestDebugFixtureExempt(t *testing.T) {
	findings, err := analyze([]string{"./testdata/src/internal/obs/debug"})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("internal/obs/debug fixture should be exempt from nakedgo: %v", findings)
	}
}

// TestServeFixtureExempt: the validation daemon may launch its
// process-lifetime http.Server goroutine without routing through the
// pool.
func TestServeFixtureExempt(t *testing.T) {
	findings, err := analyze([]string{"./testdata/src/internal/serve"})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("internal/serve fixture should be exempt from nakedgo: %v", findings)
	}
}

// TestSpanLeakMatchesLegacyOracle is the migration proof: the CFG-based
// spanleak in internal/vet must produce byte-identical findings to the
// original enclosure-chain implementation (kept verbatim in
// oracle_test.go) on both fixtures.
func TestSpanLeakMatchesLegacyOracle(t *testing.T) {
	patterns := []string{"./testdata/src/buggy", "./testdata/src/clean"}

	// New engine, spanleak only.
	all, err := analyze(patterns)
	if err != nil {
		t.Fatal(err)
	}
	var engine []vet.Finding
	for _, f := range all {
		if f.Check == "spanleak" {
			engine = append(engine, f)
		}
	}

	// Legacy oracle over the same packages, with the same suppression.
	pkgs, err := goList(patterns)
	if err != nil {
		t.Fatal(err)
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	imp := importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var legacy []vet.Finding
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		fset, info, files, err := loadPackage(p, imp)
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			suppressed := suppressedLines(fset, file)
			c := &legacyChecker{fset: fset, info: info}
			c.run(file)
			for _, f := range c.findings {
				if !suppressed[f.Pos.Line] {
					legacy = append(legacy, f)
				}
			}
		}
	}
	vet.SortFindings(legacy)

	render := func(fs []vet.Finding) string {
		var b strings.Builder
		for _, f := range fs {
			fmt.Fprintln(&b, f)
		}
		return b.String()
	}
	if render(engine) != render(legacy) {
		t.Errorf("CFG spanleak diverges from the legacy oracle:\n--- engine ---\n%s--- legacy ---\n%s", render(engine), render(legacy))
	}
	if len(engine) == 0 {
		t.Error("oracle comparison is vacuous: no spanleak findings on the fixtures")
	}
}

// TestRepositoryIsClean is the acceptance gate: the whole module must lint
// clean, so CI's `go run ./cmd/vetguard ./...` exits 0.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module; skipped in -short mode")
	}
	findings, err := analyze([]string{"github.com/guardrail-db/guardrail/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("repository has vetguard findings:\n%v", findings)
	}
}
