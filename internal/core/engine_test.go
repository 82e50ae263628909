package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/compile"
)

// compiledGuard builds a guard and switches it to the compiled engine,
// failing the test if translation validation does not go through.
func compiledGuard(t *testing.T, f *fixture, s Strategy) *Guard {
	t.Helper()
	g := NewGuard(f.prog, s)
	if _, err := g.Compile(compile.Options{}); err != nil {
		t.Fatalf("compile: %v", err)
	}
	if g.Engine().Backend() != "compiled" {
		t.Fatal("guard not on compiled engine after Compile")
	}
	return g
}

// uncompilable appends to prog a statement the interpreter can run (its
// condition never matches a real code) but compile.Compile rejects, so
// CompileEngine must fall back.
func uncompilable(prog *dsl.Program) *dsl.Program {
	bad := dsl.Statement{On: 0, Branches: []dsl.Branch{{Cond: []dsl.Pred{{Attr: 0, Value: -5}}, Value: -2}}}
	return &dsl.Program{Stmts: append(append([]dsl.Statement{}, prog.Stmts...), bad)}
}

func TestEngineConstructors(t *testing.T) {
	f := setup(t)
	if e := NewEngine(f.prog); e.Backend() != "ast" || e.Validation() != nil || e.Fallback() != nil || e.Program() != f.prog {
		t.Fatalf("NewEngine: backend %s validation %v fallback %v", e.Backend(), e.Validation(), e.Fallback())
	}
	e := CompileEngine(f.prog, compile.Options{})
	if e.Backend() != "compiled" || e.Fallback() != nil || !e.Validation().AllProved() {
		t.Fatalf("CompileEngine: backend %s fallback %v", e.Backend(), e.Fallback())
	}
	for name, want := range map[string]string{"ast": "ast", "compiled": "compiled"} {
		build, err := EngineNamed(name)
		if err != nil || build(f.prog, compile.Options{}).Backend() != want {
			t.Fatalf("EngineNamed(%q): %v", name, err)
		}
	}
	if _, err := EngineNamed("jit"); err == nil || err.Error() != `core: unknown engine "jit"` {
		t.Fatalf("unknown engine: %v", err)
	}
}

// TestEngineFallback: a program the compiler rejects still yields a
// usable engine on the AST that records why, and Guard.Compile reports the
// failure while keeping the guard on its current engine.
func TestEngineFallback(t *testing.T) {
	f := setup(t)
	prog := uncompilable(f.prog)
	e := CompileEngine(prog, compile.Options{})
	if e.Backend() != "ast" || e.Fallback() == nil || !strings.Contains(e.Fallback().Error(), "below the code space") {
		t.Fatalf("backend %s fallback %v", e.Backend(), e.Fallback())
	}
	astRel, fbRel := f.dirty.Clone(), f.dirty.Clone()
	astRep, err := NewGuard(f.prog, Rectify).Apply(astRel)
	if err != nil {
		t.Fatal(err)
	}
	fbRep, err := e.Guard(Rectify).Apply(fbRel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(astRep, fbRep) {
		t.Fatalf("fallback engine report %+v, AST %+v", fbRep, astRep)
	}
	g := NewGuard(prog, Ignore)
	before := g.Engine()
	if _, err := g.Compile(compile.Options{}); err == nil || g.Engine() != before {
		t.Fatalf("Compile on an uncompilable program: err %v, engine switched %v", err, g.Engine() != before)
	}
}

// TestStepCountsFinalCells: with two statements on one attribute the
// second undoes the first, so Rectify makes two assignments but the row
// leaves unchanged, and Step reports 0 changed cells on both engines.
func TestStepCountsFinalCells(t *testing.T) {
	rel := dataset.New("t", []string{"a", "b", "c"})
	for _, r := range [][]string{{"0", "0", "1"}, {"1", "1", "0"}} {
		if err := rel.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := dsl.Parse("GIVEN a ON b HAVING IF a = \"0\" THEN b <- \"1\";\nGIVEN c ON b HAVING IF c = \"1\" THEN b <- \"0\";\n", rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{NewEngine(prog), CompileEngine(prog, compile.Options{})} {
		row := rel.Row(0, nil)
		if n := e.Rectify(append([]int32(nil), row...)); n != 2 {
			t.Errorf("%s: Rectify made %d assignments, want 2", e.Backend(), n)
		}
		vs, changed, err := e.Guard(Rectify).Step(row)
		if err != nil || len(vs) != 1 || changed != 0 {
			t.Errorf("%s: Step = %d violations, %d changed, %v; want 1, 0, nil", e.Backend(), len(vs), changed, err)
		}
	}
}

// TestEngineConcurrentGuards: eight goroutines share one Engine, each on
// its own Guard, and every verdict and output row matches a serial run —
// under every strategy, on both backends. Run with -race.
func TestEngineConcurrentGuards(t *testing.T) {
	f := setup(t)
	rows := make([][]int32, f.dirty.NumRows())
	for i := range rows {
		rows[i] = f.dirty.Row(i, nil)
	}
	type result struct {
		row     []int32
		nvs     int
		changed int
		err     string
	}
	run := func(g *Guard) []result {
		out := make([]result, len(rows))
		for i, r := range rows {
			row := append([]int32(nil), r...)
			vs, changed, err := g.Step(row)
			out[i] = result{row: row, nvs: len(vs), changed: changed}
			if err != nil {
				out[i].err = err.Error()
			}
		}
		return out
	}
	for _, e := range []*Engine{NewEngine(f.prog), CompileEngine(f.prog, compile.Options{})} {
		for _, s := range []Strategy{Raise, Ignore, Coerce, Rectify} {
			want := run(e.Guard(s))
			got := make([][]result, 8)
			var wg sync.WaitGroup
			for w := range got {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					got[w] = run(e.Guard(s))
				}(w)
			}
			wg.Wait()
			for w := range got {
				if !reflect.DeepEqual(got[w], want) {
					t.Fatalf("%s/%s: goroutine %d differs from the serial run", e.Backend(), s, w)
				}
			}
		}
	}
}

// TestCompiledReportsByteIdentical drives Apply under every strategy on
// both engines and requires identical Reports, identical relation contents
// afterwards, and (under Raise) identical errors.
func TestCompiledReportsByteIdentical(t *testing.T) {
	f := setup(t)
	for _, s := range []Strategy{Raise, Ignore, Coerce, Rectify} {
		t.Run(s.String(), func(t *testing.T) {
			astRel, compRel := f.dirty.Clone(), f.dirty.Clone()
			astRep, astErr := NewGuard(f.prog, s).Apply(astRel)
			compRep, compErr := compiledGuard(t, f, s).Apply(compRel)
			if (astErr == nil) != (compErr == nil) {
				t.Fatalf("error mismatch: ast %v, compiled %v", astErr, compErr)
			}
			if astErr != nil {
				if astErr.Error() != compErr.Error() {
					t.Fatalf("error text differs:\nast:      %v\ncompiled: %v", astErr, compErr)
				}
				if !errors.Is(compErr, ErrViolation) {
					t.Fatal("compiled raise error does not wrap ErrViolation")
				}
			}
			if !reflect.DeepEqual(astRep, compRep) {
				t.Fatalf("reports differ:\nast:      %+v\ncompiled: %+v", astRep, compRep)
			}
			for i := 0; i < astRel.NumRows(); i++ {
				for c := 0; c < astRel.NumAttrs(); c++ {
					if astRel.Code(i, c) != compRel.Code(i, c) {
						t.Fatalf("cell (%d,%d) differs: ast %d, compiled %d",
							i, c, astRel.Code(i, c), compRel.Code(i, c))
					}
				}
			}
		})
	}
}

// TestCompiledStreamByteIdentical requires StreamCSV to produce the same
// bytes, stats, and errors on both engines, for every strategy.
func TestCompiledStreamByteIdentical(t *testing.T) {
	f := setup(t)
	var src bytes.Buffer
	if err := f.dirty.ToCSV(&src); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{Raise, Ignore, Coerce, Rectify} {
		t.Run(s.String(), func(t *testing.T) {
			var astOut, compOut bytes.Buffer
			astStats, astErr := NewGuard(f.prog, s).StreamCSV(bytes.NewReader(src.Bytes()), &astOut, f.dirty.Clone())
			compStats, compErr := compiledGuard(t, f, s).StreamCSV(bytes.NewReader(src.Bytes()), &compOut, f.dirty.Clone())
			if (astErr == nil) != (compErr == nil) {
				t.Fatalf("error mismatch: ast %v, compiled %v", astErr, compErr)
			}
			if astErr != nil && astErr.Error() != compErr.Error() {
				t.Fatalf("error text differs:\nast:      %v\ncompiled: %v", astErr, compErr)
			}
			if !reflect.DeepEqual(astStats, compStats) {
				t.Fatalf("stats differ: ast %+v, compiled %+v", astStats, compStats)
			}
			if !bytes.Equal(astOut.Bytes(), compOut.Bytes()) {
				t.Fatal("stream output differs between engines")
			}
		})
	}
}

// TestCompiledCheckRowZeroAlloc pins the compiled hot path at zero
// allocations per row: detection into the reused violation buffer plus
// strategy application must not touch the heap (Raise is exercised on
// clean rows only — its error construction allocates by design).
func TestCompiledCheckRowZeroAlloc(t *testing.T) {
	f := setup(t)
	width := f.dirty.NumAttrs()
	clean := f.clean.Row(0, nil)
	var dirtyRow []int32
	for i := 0; i < f.dirty.NumRows(); i++ {
		if r := f.dirty.Row(i, nil); len(f.prog.Detect(r)) > 0 {
			dirtyRow = r
			break
		}
	}
	if dirtyRow == nil {
		t.Fatal("no violating row in the dirty split")
	}
	buf := make([]int32, width)
	for _, tc := range []struct {
		strategy Strategy
		row      []int32
	}{
		{Ignore, dirtyRow}, {Coerce, dirtyRow}, {Rectify, dirtyRow},
		{Ignore, clean}, {Raise, clean},
	} {
		g := compiledGuard(t, f, tc.strategy)
		copy(buf, tc.row)
		if _, err := g.CheckRow(buf); err != nil { // warm the violation buffer
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			copy(buf, tc.row)
			_, _ = g.CheckRow(buf)
		})
		if allocs != 0 {
			t.Errorf("%s on %s row: %.1f allocs/op, want 0",
				tc.strategy, map[bool]string{true: "violating", false: "clean"}[len(f.prog.Detect(tc.row)) > 0], allocs)
		}
	}
}

// TestCompiledApplyAllocsFlat pins Apply's allocation count as independent
// of relation size: the per-row loop reuses every buffer, so doubling the
// rows must not add a single allocation.
func TestCompiledApplyAllocsFlat(t *testing.T) {
	f := setup(t)
	small := f.dirty.SelectRows(seqInts(64))
	big := f.dirty.SelectRows(seqInts(512))
	measure := func(rel *dataset.Relation) float64 {
		g := compiledGuard(t, f, Ignore)
		return testing.AllocsPerRun(10, func() {
			if _, err := g.Apply(rel); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := measure(small), measure(big); a != b {
		t.Fatalf("Apply allocations scale with rows: %v at 64 rows, %v at 512", a, b)
	}
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
