package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/obs"
)

// TestEndToEndWorkflow drives the CLI through the full gen → synth →
// check → rectify → analyze workflow on a temp directory.
func TestEndToEndWorkflow(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	prog := filepath.Join(dir, "constraints.gr")
	fixed := filepath.Join(dir, "clean.csv")

	if err := run([]string{"gen", "-dataset", "2", "-scale", "0.05", "-seed", "1", "-out", data}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := run([]string{"synth", "-in", data, "-eps", "0.02", "-out", prog}); err != nil {
		t.Fatalf("synth: %v", err)
	}
	src, err := os.ReadFile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "GIVEN") {
		t.Fatalf("constraint file has no GIVEN clause:\n%s", src)
	}
	if err := run([]string{"check", "-in", data, "-prog", prog}); err != nil {
		t.Fatalf("check: %v", err)
	}
	if err := run([]string{"rectify", "-in", data, "-prog", prog, "-out", fixed}); err != nil {
		t.Fatalf("rectify: %v", err)
	}
	if _, err := os.Stat(fixed); err != nil {
		t.Fatalf("rectified output missing: %v", err)
	}
	if err := run([]string{"show", "-in", data}); err != nil {
		t.Fatalf("show: %v", err)
	}
	if err := run([]string{"analyze", "-in", data, "-prog", prog}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	// A freshly synthesized program must lint clean: the synthesizer's
	// verification gate prunes anything the linter would reject.
	if err := run([]string{"lint", "-in", data, "-prog", prog}); err != nil {
		t.Fatalf("lint on synthesized program: %v", err)
	}
}

// TestLintDegenerateProgram checks the lint subcommand's failure path: a
// constraint file with a contradictory branch pair must exit nonzero with
// findings on stdout.
func TestLintDegenerateProgram(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(data, []byte("a,b\n0,0\n1,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prog := filepath.Join(dir, "bad.gr")
	src := `GIVEN a ON b HAVING
  IF a = "0" THEN b <- "0";
  IF a = "0" THEN b <- "1";
`
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() {
		if err := run([]string{"lint", "-in", data, "-prog", prog}); err == nil {
			t.Error("lint accepted a contradictory program")
		}
	})
	if !strings.Contains(out, "contradiction") {
		t.Fatalf("lint output missing contradiction finding:\n%s", out)
	}
}

// TestLintStrictPromotesWarnings: a duplicate branch is only a warning, so
// plain lint passes and -strict fails.
func TestLintStrictPromotesWarnings(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(data, []byte("a,b\n0,0\n1,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prog := filepath.Join(dir, "dup.gr")
	src := `GIVEN a ON b HAVING
  IF a = "0" THEN b <- "0";
  IF a = "0" THEN b <- "0";
`
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"lint", "-in", data, "-prog", prog}); err != nil {
		t.Fatalf("warning-only program failed plain lint: %v", err)
	}
	if err := run([]string{"lint", "-in", data, "-prog", prog, "-strict"}); err == nil {
		t.Fatal("strict lint accepted a program with warnings")
	}
}

func TestLintErrors(t *testing.T) {
	if err := run([]string{"lint"}); err == nil {
		t.Fatal("lint without flags accepted")
	}
	if err := run([]string{"lint", "-in", "/nonexistent", "-prog", "/nonexistent"}); err == nil {
		t.Fatal("lint with missing files accepted")
	}
}

// codeOf extracts the documented exit status from an error: 0 for nil, the
// wrapped code when present, 1 otherwise.
func codeOf(err error) int {
	if err == nil {
		return 0
	}
	var ec exitCode
	if errors.As(err, &ec) {
		return ec.code
	}
	return 1
}

// writeLintFixture writes a two-column CSV and a constraint file, returning
// their paths.
func writeLintFixture(t *testing.T, src string) (data, prog string) {
	t.Helper()
	dir := t.TempDir()
	data = filepath.Join(dir, "data.csv")
	prog = filepath.Join(dir, "prog.gr")
	if err := os.WriteFile(data, []byte("a,b\n0,0\n1,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return data, prog
}

// TestExitCodes pins the documented statuses of the static-analysis verbs:
// 0 clean, 1 findings, 2 usage/IO failure.
func TestExitCodes(t *testing.T) {
	clean := "GIVEN a ON b HAVING\n  IF a = \"0\" THEN b <- \"0\";\n"
	contradictory := "GIVEN a ON b HAVING\n  IF a = \"0\" THEN b <- \"0\";\n  IF a = \"0\" THEN b <- \"1\";\n"
	crossContradiction := "GIVEN a ON b HAVING\n  IF a = \"0\" THEN b <- \"0\";\nGIVEN a ON b HAVING\n  IF a = \"0\" THEN b <- \"1\";\n"

	data, prog := writeLintFixture(t, clean)
	captureStdout(t, func() {
		for _, tc := range []struct {
			name string
			args []string
			want int
		}{
			{"lint clean", []string{"lint", "-in", data, "-prog", prog}, 0},
			{"analyze clean", []string{"analyze", "-in", data, "-prog", prog}, 0},
			{"lint missing file", []string{"lint", "-in", data, "-prog", "/nonexistent"}, 2},
			{"analyze missing file", []string{"analyze", "-in", data, "-prog", "/nonexistent"}, 2},
			{"lint missing flags", []string{"lint"}, 2},
			{"analyze missing flags", []string{"analyze"}, 2},
			{"unknown verb", []string{"frobnicate"}, 2},
		} {
			if got := codeOf(run(tc.args)); got != tc.want {
				t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
			}
		}
	})

	dataBad, progBad := writeLintFixture(t, contradictory)
	dataCross, progCross := writeLintFixture(t, crossContradiction)
	captureStdout(t, func() {
		if got := codeOf(run([]string{"lint", "-in", dataBad, "-prog", progBad})); got != 1 {
			t.Errorf("lint with findings: exit code %d, want 1", got)
		}
		if got := codeOf(run([]string{"analyze", "-in", dataCross, "-prog", progCross})); got != 1 {
			t.Errorf("analyze with error findings: exit code %d, want 1", got)
		}
		// A shadowed branch is only a warning for analyze: clean exit
		// unless -strict.
		if got := codeOf(run([]string{"analyze", "-in", dataBad, "-prog", progBad, "-strict"})); got != 1 {
			t.Errorf("analyze -strict with warnings: exit code %d, want 1", got)
		}
	})
}

// TestLintJSON: -json emits one document with the findings and totals.
func TestLintJSON(t *testing.T) {
	data, prog := writeLintFixture(t,
		"GIVEN a ON b HAVING\n  IF a = \"0\" THEN b <- \"0\";\n  IF a = \"0\" THEN b <- \"1\";\n")
	out := captureStdout(t, func() {
		if codeOf(run([]string{"lint", "-in", data, "-prog", prog, "-json"})) != 1 {
			t.Error("lint -json with findings should still exit 1")
		}
	})
	var doc struct {
		File     string `json:"file"`
		Findings []struct {
			Class    string `json:"class"`
			Severity string `json:"severity"`
			Stmt     int    `json:"stmt"`
		} `json:"findings"`
		Errors int `json:"errors"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("lint -json output is not JSON: %v\n%s", err, out)
	}
	if doc.Errors == 0 || len(doc.Findings) == 0 {
		t.Fatalf("lint -json missed the contradiction: %+v", doc)
	}
	if doc.Findings[0].Class != "contradiction" || doc.Findings[0].Severity != "error" {
		t.Errorf("unexpected first finding: %+v", doc.Findings[0])
	}
}

// TestAnalyzeJSON: the analyze report carries findings, the semantic
// fingerprint, and the minimization summary.
func TestAnalyzeJSON(t *testing.T) {
	data, prog := writeLintFixture(t,
		"GIVEN a ON b HAVING\n  IF a = \"0\" THEN b <- \"0\";\n  IF a = \"0\" THEN b <- \"1\";\n")
	out := captureStdout(t, func() {
		if codeOf(run([]string{"analyze", "-in", data, "-prog", prog, "-json"})) != 0 {
			t.Error("shadowed branch is warning-severity; analyze -json should exit 0")
		}
	})
	var doc struct {
		Findings []struct {
			Class string `json:"class"`
		} `json:"findings"`
		Warnings        int    `json:"warnings"`
		Fingerprint     string `json:"fingerprint"`
		SolverCalls     int64  `json:"solver_calls"`
		BranchesRemoved int    `json:"branches_removable"`
		MinimizeProved  bool   `json:"minimize_proved"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("analyze -json output is not JSON: %v\n%s", err, out)
	}
	if doc.Warnings == 0 || len(doc.Findings) == 0 || doc.Findings[0].Class != "dead-branch" {
		t.Fatalf("analyze -json missed the dead branch: %+v", doc)
	}
	if len(doc.Fingerprint) != 16 || doc.SolverCalls == 0 {
		t.Errorf("missing fingerprint/solver accounting: %+v", doc)
	}
	if doc.BranchesRemoved != 1 || !doc.MinimizeProved {
		t.Errorf("minimization summary wrong: %+v", doc)
	}
}
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	var buf strings.Builder
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestSynthJSONOutput(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	prog := filepath.Join(dir, "constraints.json")
	if err := run([]string{"gen", "-dataset", "6", "-scale", "0.05", "-out", data}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"synth", "-in", data, "-json", "-out", prog}); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), `"statements"`) {
		t.Fatalf("not JSON:\n%s", src)
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"frobnicate"},
		{"synth"},                        // missing -in
		{"check", "-in", "x.csv"},        // missing -prog
		{"show"},                         // missing -in
		{"analyze", "-in", "nope.csv"},   // missing -prog
		{"gen", "-dataset", "99"},        // unknown dataset
		{"synth", "-in", "/nonexistent"}, // unreadable input
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("no error for %v", args)
		}
	}
}

// TestSynthReportDeterministicAcrossWorkers exercises the -report flag end
// to end: the counter section of the run-report must be byte-identical at
// -workers 1 and -workers 8 on the same seed, and the stage section must
// carry the three synthesis stages. Stage timings are wall-clock, so only
// names are compared.
func TestSynthReportDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	if err := run([]string{"gen", "-dataset", "6", "-scale", "0.05", "-out", data}); err != nil {
		t.Fatal(err)
	}
	load := func(workers string) obs.RunReport {
		report := filepath.Join(dir, "report-w"+workers+".json")
		if err := run([]string{"synth", "-in", data, "-seed", "7", "-workers", workers, "-report", report}); err != nil {
			t.Fatalf("synth -workers %s: %v", workers, err)
		}
		raw, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		var rep obs.RunReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("report -workers %s is not valid JSON: %v", workers, err)
		}
		return rep
	}
	serial := load("1")
	parallel := load("8")
	if serial.Command != "synth" {
		t.Errorf("report command = %q, want synth", serial.Command)
	}
	if !reflect.DeepEqual(serial.Counters, parallel.Counters) {
		t.Errorf("counters differ across worker counts:\nw1: %v\nw8: %v", serial.Counters, parallel.Counters)
	}
	stages := make(map[string]bool)
	for _, h := range serial.Hists {
		stages[h.Name] = true
	}
	for _, want := range []string{"synth.learn", "synth.enum", "synth.fill"} {
		if !stages[want] {
			t.Errorf("report missing stage %q (have %v)", want, serial.Hists)
		}
	}
	for _, key := range []string{"pc.ci_tests", "synth.dags", "aux.samples"} {
		if serial.Counters[key] == 0 {
			t.Errorf("counter %q is zero in run-report: %v", key, serial.Counters)
		}
	}
}

// TestCheckReport: the check subcommand's run-report carries the guard
// counters that mirror the printed Report.
func TestCheckReport(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	prog := filepath.Join(dir, "constraints.gr")
	report := filepath.Join(dir, "check.json")
	if err := run([]string{"gen", "-dataset", "2", "-scale", "0.05", "-out", data}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"synth", "-in", data, "-out", prog}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", "-in", data, "-prog", prog, "-report", report}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Command != "check" {
		t.Errorf("report command = %q, want check", rep.Command)
	}
	if rep.Counters["guard.ignore.rows_checked"] == 0 {
		t.Errorf("guard.ignore.rows_checked missing from report: %v", rep.Counters)
	}
}

func TestCheckRaiseStrategy(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	prog := filepath.Join(dir, "constraints.gr")
	if err := run([]string{"gen", "-dataset", "2", "-scale", "0.05", "-out", data}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"synth", "-in", data, "-out", prog}); err != nil {
		t.Fatal(err)
	}
	// Clean data passes even under raise.
	if err := run([]string{"check", "-in", data, "-prog", prog, "-strategy", "raise"}); err != nil {
		t.Fatalf("raise on clean data: %v", err)
	}
	if err := run([]string{"check", "-in", data, "-prog", prog, "-strategy", "explode"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}
