package serve

import (
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/compile"
	"github.com/guardrail-db/guardrail/internal/obs"
)

// TestLoadAndGet: a first load registers version 1 on the compiled
// engine with a nonzero fingerprint.
func TestLoadAndGet(t *testing.T) {
	r := NewRegistry(obs.New())
	e, changed, err := r.Load("postal", []byte(postalCSV), []byte(postalProg))
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Error("first load reported changed=false")
	}
	if e.Version != 1 || e.Fingerprint == 0 || e.Fallback() != nil {
		t.Errorf("entry = version %d fingerprint %d fallback %v", e.Version, e.Fingerprint, e.Fallback())
	}
	if e.Backend() != "compiled" {
		t.Errorf("engine = %s, want compiled", e.Backend())
	}
	got, ok := r.Get("postal")
	if !ok || got != e {
		t.Errorf("Get returned %p, want %p", got, e)
	}
	if names := r.Names(); len(names) != 1 || names[0] != "postal" {
		t.Errorf("Names = %v", names)
	}
}

// TestNoopReload: reloading byte-identical source keeps the live entry —
// same pointer, version unchanged, warmed engine preserved — and counts a
// serve.reload_noops instead of a serve.reloads.
func TestNoopReload(t *testing.T) {
	reg := obs.New()
	r := NewRegistry(reg)
	e1, _, err := r.Load("postal", []byte(postalCSV), []byte(postalProg))
	if err != nil {
		t.Fatal(err)
	}
	e2, changed, err := r.Load("postal", []byte(postalCSV), []byte(postalProg))
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("identical reload reported changed=true")
	}
	if e2 != e1 {
		t.Errorf("no-op reload replaced the entry: %p -> %p", e1, e2)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.reloads"] != 1 || snap.Counters["serve.reload_noops"] != 1 {
		t.Errorf("reloads=%d noops=%d, want 1/1", snap.Counters["serve.reloads"], snap.Counters["serve.reload_noops"])
	}
}

// TestSemanticNoopReload: the fingerprint is over the solver-canonical
// form, so spelling changes that do not change meaning — a duplicated or
// reordered condition atom, a dead branch — are no-op reloads.
// (Reordered *statements* are a real change: Rectify mutates the row
// sequentially, so statement order is semantics.)
func TestSemanticNoopReload(t *testing.T) {
	base := `GIVEN PostalCode ON City HAVING
  IF PostalCode = "94704" AND State = "CA" THEN City <- "Berkeley";
GIVEN City ON State HAVING
  IF City = "Berkeley" THEN State <- "CA";
`
	equivalents := map[string]string{
		"duplicated atom": `GIVEN PostalCode ON City HAVING
  IF PostalCode = "94704" AND State = "CA" AND PostalCode = "94704" THEN City <- "Berkeley";
GIVEN City ON State HAVING
  IF City = "Berkeley" THEN State <- "CA";
`,
		"reordered atoms": `GIVEN PostalCode ON City HAVING
  IF State = "CA" AND PostalCode = "94704" THEN City <- "Berkeley";
GIVEN City ON State HAVING
  IF City = "Berkeley" THEN State <- "CA";
`,
		"dead branch erased": `GIVEN PostalCode ON City HAVING
  IF PostalCode = "94704" AND State = "CA" THEN City <- "Berkeley";
  IF PostalCode = "94704" AND PostalCode = "94110" THEN City <- "Oakland";
GIVEN City ON State HAVING
  IF City = "Berkeley" THEN State <- "CA";
`,
	}
	for name, src := range equivalents {
		r := NewRegistry(obs.New())
		if _, _, err := r.Load("postal", []byte(postalCSV), []byte(base)); err != nil {
			t.Fatal(err)
		}
		_, changed, err := r.Load("postal", []byte(postalCSV), []byte(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if changed {
			t.Errorf("%s: semantically-equivalent reload reported changed=true", name)
		}
	}
}

// TestDictCollisionChangesFingerprint: two schema CSVs can intern
// different literals at the same dictionary codes, making the code-level
// canonical strings identical. The fingerprint must still differ — it
// hashes the decoded literal table, not just the codes.
func TestDictCollisionChangesFingerprint(t *testing.T) {
	schemaA := "PostalCode,City\n94704,Berkeley\n"
	progA := "GIVEN PostalCode ON City HAVING\n  IF PostalCode = \"94704\" THEN City <- \"Berkeley\";\n"
	schemaB := "PostalCode,City\n94704,Albany\n"
	progB := "GIVEN PostalCode ON City HAVING\n  IF PostalCode = \"94704\" THEN City <- \"Albany\";\n"

	r := NewRegistry(obs.New())
	e1, _, err := r.Load("postal", []byte(schemaA), []byte(progA))
	if err != nil {
		t.Fatal(err)
	}
	e2, changed, err := r.Load("postal", []byte(schemaB), []byte(progB))
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("reload with different literals at the same codes reported changed=false")
	}
	if e1.Fingerprint == e2.Fingerprint {
		t.Errorf("fingerprints collide across dictionary encodings: %016x", e1.Fingerprint)
	}
	if e2.Version != 2 {
		t.Errorf("version = %d, want 2", e2.Version)
	}
}

// TestCompileFallback: when compilation fails, the entry serves on the
// AST (fail-closed — the guard is never dropped), records why, and bumps
// serve.compile_fallbacks.
func TestCompileFallback(t *testing.T) {
	// Append a statement the interpreter runs (its condition matches no
	// real code) but the compiler rejects: a value below the code space.
	orig := newEngine
	newEngine = func(p *dsl.Program, opts compile.Options) *core.Engine {
		bad := dsl.Statement{On: 0, Branches: []dsl.Branch{{Cond: dsl.Condition{{Attr: 0, Value: -5}}, Value: -2}}}
		return core.CompileEngine(&dsl.Program{Stmts: append(append([]dsl.Statement{}, p.Stmts...), bad)}, opts)
	}
	defer func() { newEngine = orig }()

	reg := obs.New()
	r := NewRegistry(reg)
	e, _, err := r.Load("postal", []byte(postalCSV), []byte(postalProg))
	if err != nil {
		t.Fatal(err)
	}
	if e.Backend() != "ast" {
		t.Errorf("engine = %s, want ast fallback", e.Backend())
	}
	if err := e.Fallback(); err == nil || !strings.Contains(err.Error(), "below the code space") {
		t.Errorf("Fallback = %v", err)
	}
	if n := reg.Snapshot().Counters["serve.compile_fallbacks"]; n != 1 {
		t.Errorf("serve.compile_fallbacks = %d, want 1", n)
	}

	// The AST path still detects: codes for 94704/Oakland in the fixture
	// schema.
	row := make([]int32, e.Schema.NumAttrs())
	pc, _ := e.Schema.Dict(0).Lookup("94704")
	city, _ := e.Schema.Dict(1).Lookup("Oakland")
	state, _ := e.Schema.Dict(2).Lookup("CA")
	row[0], row[1], row[2] = pc, city, state
	if vs := e.Detect(row, nil); len(vs) != 1 {
		t.Errorf("AST fallback Detect returned %d violations, want 1", len(vs))
	}
}

// TestLoadErrorsLeaveRegistryUntouched: parse and schema errors surface
// without disturbing the live entry.
func TestLoadErrorsLeaveRegistryUntouched(t *testing.T) {
	r := NewRegistry(obs.New())
	e1, _, err := r.Load("postal", []byte(postalCSV), []byte(postalProg))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Load("postal", []byte(postalCSV), []byte("GIVEN Bogus ON")); err == nil {
		t.Error("bad program source loaded without error")
	}
	if _, _, err := r.Load("postal", []byte("not,a\nvalid"), []byte(postalProg)); err == nil {
		t.Error("ragged schema CSV loaded without error")
	}
	if e, _ := r.Get("postal"); e != e1 {
		t.Errorf("failed load disturbed the live entry: %p -> %p", e1, e)
	}
}

// TestRemove: removal unregisters the name; a second remove reports
// absence.
func TestRemove(t *testing.T) {
	reg := obs.New()
	r := NewRegistry(reg)
	if _, _, err := r.Load("postal", []byte(postalCSV), []byte(postalProg)); err != nil {
		t.Fatal(err)
	}
	if !r.Remove("postal") {
		t.Error("Remove = false for a registered name")
	}
	if _, ok := r.Get("postal"); ok {
		t.Error("entry still live after Remove")
	}
	if r.Remove("postal") {
		t.Error("second Remove = true")
	}
	if n := reg.Snapshot().Gauges["serve.programs"]; n != 0 {
		t.Errorf("serve.programs = %d, want 0", n)
	}
}

// TestLoadFiles: the CLI's disk-based load path against the repository's
// example fixture.
func TestLoadFiles(t *testing.T) {
	r := NewRegistry(obs.New())
	e, changed, err := r.LoadFiles("postal",
		"../../examples/constraints/postal.csv", "../../examples/constraints/postal.gr")
	if err != nil {
		t.Fatal(err)
	}
	if !changed || e.Backend() != "compiled" {
		t.Errorf("changed=%v engine=%s", changed, e.Backend())
	}
	if _, _, err := r.LoadFiles("postal", "no-such.csv", "no-such.gr"); err == nil {
		t.Error("missing files loaded without error")
	}
}
