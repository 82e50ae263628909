package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// countSpans tallies closed spans by name in a tracer's merged records.
func countSpans(tr *trace.Tracer) map[string]int {
	counts := map[string]int{}
	for _, r := range tr.Records() {
		if !r.Instant {
			counts[r.Name]++
		}
	}
	return counts
}

// TestApplyTracedStatsIdentical: tracing is observation only — a traced
// Apply must produce the exact Report an untraced one does, and per-row
// span volume must stay bounded by the sampling rate.
func TestApplyTracedStatsIdentical(t *testing.T) {
	f := setup(t)
	plain, err := NewGuard(f.prog, Ignore).Apply(f.dirty.Clone())
	if err != nil {
		t.Fatal(err)
	}

	const every = 100
	tr := trace.New(1)
	traced, err := NewGuard(f.prog, Ignore).WithTrace(tr.Root(), every).Apply(f.dirty.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if plain.RowsChecked != traced.RowsChecked || plain.RowsFlagged != traced.RowsFlagged ||
		plain.CellsChanged != traced.CellsChanged {
		t.Fatalf("traced report differs: %+v vs %+v", plain, traced)
	}
	for i := range plain.Flagged {
		if plain.Flagged[i] != traced.Flagged[i] {
			t.Fatalf("row %d flagged %v traced, %v untraced", i, traced.Flagged[i], plain.Flagged[i])
		}
	}

	counts := countSpans(tr)
	if counts["guard.apply"] != 1 {
		t.Errorf("guard.apply spans = %d, want 1", counts["guard.apply"])
	}
	maxRows := (traced.RowsChecked + every - 1) / every
	if got := counts["guard.row"]; got == 0 || got > maxRows {
		t.Errorf("guard.row spans = %d, want in [1,%d] (1-in-%d sampling)", got, maxRows, every)
	}
}

// TestStreamCSVTracedStatsIdentical: same contract for the streaming
// path — identical stats and byte-identical output with tracing on.
func TestStreamCSVTracedStatsIdentical(t *testing.T) {
	f := setup(t)
	var in bytes.Buffer
	if err := f.dirty.ToCSV(&in); err != nil {
		t.Fatal(err)
	}
	input := in.String()

	var plainOut bytes.Buffer
	plain, err := NewGuard(f.prog, Rectify).StreamCSV(strings.NewReader(input), &plainOut, f.dirty.Clone())
	if err != nil {
		t.Fatal(err)
	}

	const every = 50
	tr := trace.New(1)
	var tracedOut bytes.Buffer
	traced, err := NewGuard(f.prog, Rectify).WithTrace(tr.Root(), every).
		StreamCSV(strings.NewReader(input), &tracedOut, f.dirty.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if *plain != *traced {
		t.Fatalf("traced stats differ: %+v vs %+v", plain, traced)
	}
	if plainOut.String() != tracedOut.String() {
		t.Fatal("tracing altered the rectified stream output")
	}

	counts := countSpans(tr)
	if counts["stream.csv"] != 1 {
		t.Errorf("stream.csv spans = %d, want 1", counts["stream.csv"])
	}
	maxRows := (traced.Rows + every - 1) / every
	if got := counts["stream.row"]; got == 0 || got > maxRows {
		t.Errorf("stream.row spans = %d, want in [1,%d] (1-in-%d sampling)", got, maxRows, every)
	}
}

// TestStreamCSVUntracedEmitsNoSpans: a guard without WithTrace must not
// record anything even when a tracer exists in the process.
func TestStreamCSVUntracedEmitsNoSpans(t *testing.T) {
	f := setup(t)
	var in bytes.Buffer
	if err := f.dirty.ToCSV(&in); err != nil {
		t.Fatal(err)
	}
	tr := trace.New(1)
	var out bytes.Buffer
	if _, err := NewGuard(f.prog, Ignore).StreamCSV(&in, &out, f.dirty.Clone()); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Records()); n != 0 {
		t.Fatalf("untraced guard recorded %d spans", n)
	}
}

// TestExplainViolationExact pins the rendered message against a
// hand-built violation on a tiny schema.
func TestExplainViolationExact(t *testing.T) {
	rel, err := dataset.FromCSV(strings.NewReader("city,zip\nparis,75\nlyon,69\n"), "mini")
	if err != nil {
		t.Fatal(err)
	}
	zip := rel.AttrIndex("zip")
	v := dsl.Violation{Stmt: 3, Attr: zip, Expected: rel.Intern(zip, "75"), Actual: rel.Intern(zip, "69")}
	want := `statement 3: zip should be "75" (found "69")`
	if got := ExplainViolation(v, rel); got != want {
		t.Errorf("ExplainViolation = %q, want %q", got, want)
	}
}

// TestCriticalPathAgreesWithStageTable is the acceptance check tying the
// two observability views together: the synthesis stage the registry's
// stage table reports as dominant must appear on the tracer's critical
// path.
func TestCriticalPathAgreesWithStageTable(t *testing.T) {
	f := setup(t)
	reg := obs.New()
	tr := trace.New(2)
	if _, err := Synthesize(f.clean, Options{Epsilon: 0.02, Seed: 1, Workers: 2, Obs: reg, Trace: tr.Root()}); err != nil {
		t.Fatal(err)
	}

	// Dominant pipeline stage by total time in the metrics table. Only the
	// three synth.* stages are comparable to path steps one-to-one.
	var dominant string
	var dominantNS int64
	for _, st := range reg.Snapshot().Hists {
		switch st.Name {
		case "synth.learn", "synth.enum", "synth.fill":
			if st.SumNS > dominantNS {
				dominant, dominantNS = st.Name, st.SumNS
			}
		}
	}
	if dominant == "" {
		t.Fatal("no synth stages in the registry")
	}

	steps := tr.CriticalPath()
	if len(steps) == 0 {
		t.Fatal("traced synthesis produced no critical path")
	}
	if steps[0].Name != "synth.run" {
		t.Errorf("critical path root = %q, want synth.run", steps[0].Name)
	}
	found := false
	for _, s := range steps {
		if s.Name == dominant {
			found = true
			// The path's view of the stage and the table's must describe the
			// same work: same order of magnitude, not wildly apart.
			if s.DurNS < dominantNS/2 {
				t.Errorf("path %s dur %d vs stage total %d: disagree by >2x", dominant, s.DurNS, dominantNS)
			}
		}
	}
	if !found {
		names := make([]string, len(steps))
		for i, s := range steps {
			names[i] = fmt.Sprintf("%s(%d)", s.Name, s.DurNS)
		}
		t.Fatalf("dominant stage %s (%.2fms) not on critical path: %v",
			dominant, float64(dominantNS)/1e6, names)
	}
}
