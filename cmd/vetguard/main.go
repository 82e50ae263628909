// Command vetguard is the project-specific Go source linter — the second
// layer of Guardrail's static-analysis subsystem. Where internal/dsl/analysis
// checks synthesized programs, vetguard checks the Go code that synthesizes
// them, enforcing the determinism and hygiene invariants a reproducible
// experiment pipeline depends on.
//
// The checks themselves live in internal/vet: a reusable, stdlib-only
// analysis library with a CFG builder, dominance, and a generic dataflow
// solver, plus the registered checks —
//
//	maporder:    map iteration order reaching an order-sensitive sink
//	             (output stream, unsorted append, float accumulation),
//	             both the syntactic in-loop form and flow-sensitive
//	             escapes the loop-local view cannot see
//	globalrand:  use of the global math/rand source in non-test code —
//	             experiments must draw from seeded *rand.Rand instances
//	ignorederr:  a call — plain, deferred, or in a go statement — whose
//	             error result is silently discarded
//	nakedgo:     a `go` statement outside internal/par — pipeline
//	             concurrency must route through the worker pool so it
//	             inherits ordered collection, cancellation, and panic
//	             propagation
//	regcopy:     a receiver, parameter, result, or range value that moves
//	             a type holding sync or sync/atomic state by value —
//	             copying forks the lock word or counter register
//	spanleak:    an obs.Span or trace.Span received from a call with a
//	             path through the function that never calls End —
//	             an unclosed span loses its stage timing or exports as an
//	             unfinished trace record
//	lockbalance: a sync.Mutex/RWMutex still held on some path to return —
//	             the next caller to Lock deadlocks
//	deaderr:     an error assigned from a call, then overwritten or
//	             dropped on some path before anything reads it
//
// Usage:
//
//	go run ./cmd/vetguard ./...
//	go run ./cmd/vetguard -json ./...
//
// Findings print as file:line:col: [check] message — the shape the GitHub
// Actions problem matcher in .github/vetguard-matcher.json annotates — and
// make the process exit 1. Under -json the findings print instead as one
// machine-readable JSON document on stdout with the same exit contract
// (0 clean, 1 findings, 2 invocation failure). A finding can be suppressed
// with a `//vetguard:ignore` comment on the same line or the line above.
// Only stdlib go/ast, go/parser and go/types are used; package metadata
// and export data come from `go list`.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"github.com/guardrail-db/guardrail/internal/vet"
)

func main() {
	fs := flag.NewFlagSet("vetguard", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit findings as one JSON document on stdout")
	_ = fs.Parse(os.Args[1:])
	findings, err := analyze(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetguard:", err)
		os.Exit(2)
	}
	if *asJSON {
		if err := writeJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "vetguard:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "vetguard: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// jsonFinding is the -json wire form of one diagnostic.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// writeJSON renders findings as the -json document: a stable envelope CI
// jobs can parse without scraping the text format.
func writeJSON(w io.Writer, findings []vet.Finding) error {
	doc := struct {
		Findings []jsonFinding `json:"findings"`
		Count    int           `json:"count"`
	}{Findings: []jsonFinding{}, Count: len(findings)}
	for _, f := range findings {
		doc.Findings = append(doc.Findings, jsonFinding{
			File: f.Pos.Filename, Line: f.Pos.Line, Column: f.Pos.Column,
			Check: f.Check, Message: f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// listedPkg is the subset of `go list -json` output vetguard needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// analyze lints the packages matched by patterns (default "./...") and
// returns the findings in the canonical order: file, line, column, check,
// message — a total order, so emission is byte-stable regardless of the
// order packages were walked in.
func analyze(patterns []string) ([]vet.Finding, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	imp := importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("vetguard: no export data for %q", path)
		}
		return os.Open(file)
	})

	var findings []vet.Finding
	linted := 0
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		fs, err := lintPackage(p, imp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.ImportPath, err)
		}
		linted++
		findings = append(findings, fs...)
	}
	// A typo'd pattern must not look like a clean run: with `go list -e` a
	// nonexistent path still yields an entry, just one with no GoFiles.
	if linted == 0 {
		return nil, fmt.Errorf("no lintable packages matched %s", strings.Join(patterns, " "))
	}
	vet.SortFindings(findings)
	return findings, nil
}

// goList resolves patterns to packages with compiled export data via the go
// command: `-export` populates .Export for every package in the `-deps`
// closure, which is exactly what the typechecker's importer needs.
func goList(patterns []string) ([]listedPkg, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// loadPackage parses and typechecks one listed package. Test files are
// not listed in GoFiles, so the checks see only non-test code.
func loadPackage(p listedPkg, imp types.Importer) (*token.FileSet, *types.Info, []*ast.File, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range p.GoFiles {
		path := filepath.Join(p.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: imp,
		// Keep going on type errors (e.g. a package that no longer
		// compiles): checks degrade gracefully on partial info.
		Error: func(error) {},
	}
	_, _ = conf.Check(p.ImportPath, fset, files, info)
	return fset, info, files, nil
}

// lintPackage runs every registered internal/vet check over one package
// and applies //vetguard:ignore suppression.
func lintPackage(p listedPkg, imp types.Importer) ([]vet.Finding, error) {
	fset, info, files, err := loadPackage(p, imp)
	if err != nil {
		return nil, err
	}
	var findings []vet.Finding
	for _, file := range files {
		suppressed := suppressedLines(fset, file)
		for _, f := range vet.RunChecks(fset, info, file, p.ImportPath) {
			if suppressed[f.Pos.Line] {
				continue
			}
			findings = append(findings, f)
		}
	}
	return findings, nil
}

// suppressedLines collects the lines covered by //vetguard:ignore comments:
// the comment's own line and the line below it.
func suppressedLines(fset *token.FileSet, file *ast.File) map[int]bool {
	out := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "vetguard:ignore") {
				line := fset.Position(c.Pos()).Line
				out[line] = true
				out[line+1] = true
			}
		}
	}
	return out
}
