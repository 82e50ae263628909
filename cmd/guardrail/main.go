// Command guardrail synthesizes integrity constraints from CSV data and
// enforces them, exposing the paper's full offline/online workflow:
//
//	guardrail gen     -dataset 2 -scale 0.1 -out data.csv
//	guardrail synth   -in data.csv -eps 0.02 -out constraints.gr
//	guardrail resynth -in stream.csv -window 500 -json
//	guardrail check   -in dirty.csv -prog constraints.gr
//	guardrail rectify -in dirty.csv -prog constraints.gr -out clean.csv
//	guardrail show    -in data.csv
//	guardrail analyze -in data.csv -prog constraints.gr
//	guardrail lint    -in data.csv -prog constraints.gr
//	guardrail serve   -addr :8080 -load mydata=data.csv,constraints.gr
//
// The static-analysis verbs `lint` and `analyze` use documented exit
// codes so CI lanes can distinguish outcomes: 0 means the program is
// clean, 1 means the verb reported findings, 2 means the invocation
// itself failed (bad flags, unreadable files, parse errors). Both accept
// -json for machine-readable findings. Other verbs exit 1 on any error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/analysis"
	"github.com/guardrail-db/guardrail/internal/dsl/compile"
	"github.com/guardrail-db/guardrail/internal/errgen"
)

// exitCode carries the documented process exit status for the
// static-analysis verbs: 1 for findings, 2 for usage/IO failures. Errors
// without one exit 1.
type exitCode struct {
	code int
	err  error
}

func (e exitCode) Error() string { return e.err.Error() }
func (e exitCode) Unwrap() error { return e.err }

// findings wraps a findings summary with exit status 1.
func findingsErr(format string, args ...any) error {
	return exitCode{code: 1, err: fmt.Errorf(format, args...)}
}

// usageErr wraps a usage or I/O failure with exit status 2.
func usageErr(err error) error {
	if err == nil {
		return nil
	}
	return exitCode{code: 2, err: err}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "guardrail:", err)
		var ec exitCode
		if errors.As(err, &ec) {
			os.Exit(ec.code)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return usageErr(fmt.Errorf("usage: guardrail <gen|synth|resynth|check|rectify|show|analyze|lint|serve> [flags]"))
	}
	switch args[0] {
	case "gen":
		return cmdGen(args[1:])
	case "synth":
		return cmdSynth(args[1:])
	case "resynth":
		return cmdResynth(args[1:])
	case "check":
		return cmdCheck(args[1:], false)
	case "rectify":
		return cmdCheck(args[1:], true)
	case "show":
		return cmdShow(args[1:])
	case "analyze":
		return cmdAnalyze(args[1:])
	case "lint":
		return cmdLint(args[1:])
	case "serve":
		return cmdServe(args[1:])
	default:
		return usageErr(fmt.Errorf("unknown subcommand %q", args[0]))
	}
}

// countFindings tallies the error- and warning-severity findings that
// decide the exit status of `lint` and `analyze`; info findings count as
// neither.
func countFindings(fs []analysis.Finding) (nErrors, nWarnings int) {
	for _, f := range fs {
		switch f.Severity {
		case analysis.Error:
			nErrors++
		case analysis.Warning:
			nWarnings++
		}
	}
	return nErrors, nWarnings
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func loadCSV(path string) (*dataset.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// Read side: a Close error after a successful read carries no data.
	defer func() { _ = f.Close() }()
	return dataset.FromCSV(f, path)
}

func writeCSV(rel *dataset.Relation, path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Write side: Close is where buffered bytes hit the disk, so its
	// error is the write failing — surface it unless ToCSV already did.
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return rel.ToCSV(f)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	id := fs.Int("dataset", 2, "Table 2 dataset id (1-12)")
	network := fs.String("network", "", "named network instead of -dataset: postal (the Example 3.1 PostalCode->City->State->Country chain)")
	rows := fs.Int("rows", 3000, "row count for -network sampling")
	codes := fs.Int("postal-codes", 6, "postal-code cardinality of -network postal")
	scale := fs.Float64("scale", 0.1, "row-count scale in (0,1] for -dataset")
	seed := fs.Int64("seed", 1, "sampling seed")
	out := fs.String("out", "data.csv", "output CSV path")
	corruptCols := fs.String("corrupt-cols", "", "comma-separated attribute names to corrupt via errgen (empty: no corruption)")
	corruptRate := fs.Float64("corrupt-rate", 0.05, "fraction of rows to corrupt when -corrupt-cols is set")
	corruptRandom := fs.Float64("corrupt-random", 1.0, "probability a corrupted cell gets a fresh out-of-domain string")
	corruptSeed := fs.Int64("corrupt-seed", 1, "corruption seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var rel *dataset.Relation
	var name string
	switch *network {
	case "":
		spec, err := bn.SpecByID(*id)
		if err != nil {
			return err
		}
		name = spec.Name
		if rel, err = spec.Generate(*scale, *seed); err != nil {
			return err
		}
	case "postal":
		name = "postal"
		var err error
		if rel, err = bn.PostalChain(*codes).Sample(*rows, *seed); err != nil {
			return err
		}
	default:
		return fmt.Errorf("gen: unknown -network %q (want postal)", *network)
	}
	if *corruptCols != "" {
		var cols []int
		for _, c := range strings.Split(*corruptCols, ",") {
			idx := rel.AttrIndex(strings.TrimSpace(c))
			if idx < 0 {
				return fmt.Errorf("gen: -corrupt-cols names unknown attribute %q", c)
			}
			cols = append(cols, idx)
		}
		mask, err := errgen.Inject(rel, errgen.Options{
			Rate:             *corruptRate,
			RandomStringProb: *corruptRandom,
			Columns:          cols,
			Seed:             *corruptSeed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "corrupted %d cells in %s\n", len(mask.Cells), *corruptCols)
	}
	if err := writeCSV(rel, *out); err != nil {
		return err
	}
	fmt.Printf("wrote %d rows x %d attrs of %q to %s\n", rel.NumRows(), rel.NumAttrs(), name, *out)
	return nil
}

func cmdSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ContinueOnError)
	in := fs.String("in", "", "training CSV (required)")
	out := fs.String("out", "", "output constraint file (default: stdout)")
	eps := fs.Float64("eps", 0.02, "epsilon-validity threshold")
	seed := fs.Int64("seed", 1, "sampling seed")
	identity := fs.Bool("identity-sampler", false, "disable the auxiliary-distribution sampler")
	asJSON := fs.Bool("json", false, "emit the program as JSON instead of the surface syntax")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "synthesis worker-pool size; 1 forces the serial pipeline")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("synth: -in is required")
	}
	rel, err := loadCSV(*in)
	if err != nil {
		return err
	}
	reg, tr, finish, err := of.start("synth", *workers)
	if err != nil {
		return err
	}
	res, err := core.Synthesize(rel, core.Options{Epsilon: *eps, Seed: *seed, IdentitySampler: *identity, Workers: *workers, Obs: reg, Trace: tr.Root()})
	if err != nil {
		return err
	}
	var text string
	if *asJSON {
		data, err := dsl.MarshalJSON(res.Program, rel)
		if err != nil {
			return err
		}
		text = string(data)
	} else {
		text = dsl.Format(res.Program, rel)
	}
	if *out == "" {
		fmt.Println(text)
	} else if err := os.WriteFile(*out, []byte(text+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "synthesized %d statements (coverage %.3f, %d DAGs in MEC, %d candidates pruned by verifier, %s total)\n",
		len(res.Program.Stmts), res.Coverage, res.NumDAGs, res.PrunedPrograms, res.TotalTime().Round(1000))
	if summary := reg.StageSummary(); summary != "" {
		fmt.Fprint(os.Stderr, summary)
	}
	return finish()
}

// cmdLint runs the semantic verifier over a constraint file — the offline
// counterpart of the pruning gate inside the synthesizer. Findings print
// on stdout (or as one JSON document under -json). Exit status: 0 clean,
// 1 error-severity findings (any finding under -strict), 2 usage or I/O
// failure.
func cmdLint(args []string) error {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	in := fs.String("in", "", "CSV the program applies to (required)")
	prog := fs.String("prog", "", "constraint file to lint (required)")
	strict := fs.Bool("strict", false, "treat warnings as errors")
	asJSON := fs.Bool("json", false, "emit findings as one JSON document")
	if err := fs.Parse(args); err != nil {
		return usageErr(err)
	}
	if *in == "" || *prog == "" {
		return usageErr(fmt.Errorf("lint: -in and -prog are required"))
	}
	rel, err := loadCSV(*in)
	if err != nil {
		return usageErr(err)
	}
	src, err := os.ReadFile(*prog)
	if err != nil {
		return usageErr(err)
	}
	// Snapshot dictionary sizes: Parse interns unseen literals, so growth
	// means the program mentions values that never occur in the dataset —
	// the CLI-level form of a domain violation.
	before := make([]int, rel.NumAttrs())
	for a := range before {
		before[a] = rel.Cardinality(a)
	}
	program, err := dsl.Parse(string(src), rel)
	if err != nil {
		return usageErr(err)
	}
	all := []analysis.Finding{} // -json prints [] rather than null
	for a := range before {
		if grown := rel.Cardinality(a) - before[a]; grown > 0 {
			all = append(all, analysis.Finding{
				Class: analysis.DomainViolation, Severity: analysis.Warning, Stmt: -1, Branch: -1, Other: -1,
				Message: fmt.Sprintf("%d literal(s) of %s never occur in %s", grown, rel.Attr(a), *in),
			})
		}
	}
	all = append(all, analysis.Verify(program, rel)...)
	nErrors, nWarnings := countFindings(all)
	if *asJSON {
		doc := struct {
			File     string             `json:"file"`
			Findings []analysis.Finding `json:"findings"`
			Errors   int                `json:"errors"`
			Warnings int                `json:"warnings"`
		}{*prog, all, nErrors, nWarnings}
		if err := printJSON(doc); err != nil {
			return usageErr(err)
		}
	} else {
		for _, f := range all {
			fmt.Printf("%s: %s\n", *prog, f)
		}
	}
	if nErrors > 0 || (*strict && nWarnings > 0) {
		return findingsErr("lint: %d errors, %d warnings in %s", nErrors, nWarnings, *prog)
	}
	if !*asJSON {
		fmt.Printf("%s: %d statements verified clean (%d warnings)\n", *prog, len(program.Stmts), nWarnings)
	}
	return nil
}

func cmdCheck(args []string, rectify bool) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	in := fs.String("in", "", "CSV to validate (required)")
	prog := fs.String("prog", "", "constraint file from `guardrail synth` (required)")
	out := fs.String("out", "", "rectified CSV output (rectify only)")
	strategy := fs.String("strategy", "ignore", "raise|ignore|coerce|rectify")
	engine := fs.String("engine", "compiled", "row-check engine: ast|compiled (compiled falls back to ast when translation validation fails)")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *prog == "" {
		return fmt.Errorf("-in and -prog are required")
	}
	rel, err := loadCSV(*in)
	if err != nil {
		return err
	}
	src, err := os.ReadFile(*prog)
	if err != nil {
		return err
	}
	program, err := dsl.Parse(string(src), rel)
	if err != nil {
		return err
	}
	strat := core.Ignore
	if rectify {
		strat = core.Rectify
	} else if s, err := core.ParseStrategy(*strategy); err == nil {
		strat = s
	} else {
		return err
	}
	command := "check"
	if rectify {
		command = "rectify"
	}
	newEngine, err := core.EngineNamed(*engine)
	if err != nil {
		return err
	}
	reg, tr, finish, err := of.start(command, 1)
	if err != nil {
		return err
	}
	// The compiled engine compiles over the open universe — sound even for
	// CSV values the training data never produced. A failed translation
	// validation is not fatal: the AST interpreter computes the same reports.
	eng := newEngine(program, compile.Options{Obs: reg, Trace: tr.Root()})
	if err := eng.Fallback(); err != nil {
		fmt.Fprintf(os.Stderr, "engine: ast (compiled unavailable: %v)\n", err)
	} else {
		fmt.Fprintln(os.Stderr, "engine:", eng.Backend())
		if val := eng.Validation(); val != nil {
			fmt.Fprintln(os.Stderr, val.Summary())
		}
	}
	guard := eng.Guard(strat).Instrument(reg).WithTrace(tr.Root(), 0)
	rep, err := guard.Apply(rel)
	if err != nil {
		return err
	}
	fmt.Printf("checked %d rows: %d flagged, %d cells changed (strategy %s)\n",
		rep.RowsChecked, rep.RowsFlagged, rep.CellsChanged, strat)
	for i, fl := range rep.Flagged {
		if fl {
			fmt.Printf("  row %d violates constraints\n", i)
		}
	}
	if rectify && *out != "" {
		if err := writeCSV(rel, *out); err != nil {
			return err
		}
		fmt.Printf("wrote rectified data to %s\n", *out)
	}
	return finish()
}

// cmdAnalyze runs the semantic analysis passes (internal/dsl/analysis)
// over a constraint file: dead branches, exhaustive guards, statement
// subsumption, cross-statement contradictions, the program's semantic
// fingerprint, and what minimization could remove. Exit status: 0 clean,
// 1 error-severity findings (any warning-or-worse finding under
// -strict), 2 usage or I/O failure.
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	in := fs.String("in", "", "CSV the program was synthesized from (required)")
	prog := fs.String("prog", "", "constraint file (required)")
	strict := fs.Bool("strict", false, "treat warnings as errors")
	asJSON := fs.Bool("json", false, "emit the report as one JSON document")
	if err := fs.Parse(args); err != nil {
		return usageErr(err)
	}
	if *in == "" || *prog == "" {
		return usageErr(fmt.Errorf("analyze: -in and -prog are required"))
	}
	rel, err := loadCSV(*in)
	if err != nil {
		return usageErr(err)
	}
	src, err := os.ReadFile(*prog)
	if err != nil {
		return usageErr(err)
	}
	program, err := dsl.Parse(string(src), rel)
	if err != nil {
		return usageErr(err)
	}
	rpt := analysis.Program(program, rel)
	st := dsl.Analyze(program)
	findings := append([]analysis.Finding{}, rpt.Findings...) // -json prints [] rather than null
	nErrors, nWarnings := countFindings(findings)
	if *asJSON {
		doc := struct {
			File            string             `json:"file"`
			Findings        []analysis.Finding `json:"findings"`
			Errors          int                `json:"errors"`
			Warnings        int                `json:"warnings"`
			Statements      int                `json:"statements"`
			Branches        int                `json:"branches"`
			Coverage        float64            `json:"coverage"`
			Fingerprint     string             `json:"fingerprint"`
			SolverCalls     int64              `json:"solver_calls"`
			BranchesRemoved int                `json:"branches_removable"`
			StmtsRemoved    int                `json:"stmts_removable"`
			MinimizeProved  bool               `json:"minimize_proved"`
		}{
			File: *prog, Findings: findings, Errors: nErrors, Warnings: nWarnings,
			Statements: len(program.Stmts), Branches: st.Branches,
			Coverage:    dsl.Coverage(program, rel),
			Fingerprint: fmt.Sprintf("%016x", rpt.Fingerprint), SolverCalls: rpt.SolverCalls,
			BranchesRemoved: rpt.BranchesRemoved, StmtsRemoved: rpt.StmtsRemoved,
			MinimizeProved: rpt.MinimizeProved,
		}
		if err := printJSON(doc); err != nil {
			return usageErr(err)
		}
	} else {
		fmt.Printf("%s: %d statements, %d branches, coverage %.3f, fingerprint %016x\n",
			*prog, len(program.Stmts), st.Branches, dsl.Coverage(program, rel), rpt.Fingerprint)
		for _, f := range findings {
			fmt.Printf("%s: %s\n", *prog, f)
		}
		if rpt.BranchesRemoved > 0 || rpt.StmtsRemoved > 0 {
			proof := "proved equivalent"
			if !rpt.MinimizeProved {
				proof = "NOT proved equivalent"
			}
			fmt.Printf("%s: minimization removes %d branch(es), %d statement(s) (%s)\n",
				*prog, rpt.BranchesRemoved, rpt.StmtsRemoved, proof)
		}
		fmt.Printf("%s: %d findings (%d errors, %d warnings), %d solver calls\n",
			*prog, len(rpt.Findings), nErrors, nWarnings, rpt.SolverCalls)
	}
	if nErrors > 0 || (*strict && nWarnings > 0) {
		return findingsErr("analyze: %d errors, %d warnings in %s", nErrors, nWarnings, *prog)
	}
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	in := fs.String("in", "", "CSV to summarize (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("show: -in is required")
	}
	rel, err := loadCSV(*in)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d rows, %d attributes\n", *in, rel.NumRows(), rel.NumAttrs())
	for a := 0; a < rel.NumAttrs(); a++ {
		fmt.Printf("  %-24s cardinality %d\n", rel.Attr(a), rel.Cardinality(a))
	}
	return nil
}
