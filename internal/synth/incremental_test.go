package synth

import (
	"fmt"
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl/analysis"
	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/smt/sat"
)

// streamRelation builds an empty relation with src's header, ready for
// Observe to grow.
func streamRelation(t *testing.T, src *dataset.Relation) *dataset.Relation {
	t.Helper()
	header := make([]string, src.NumAttrs())
	for i := range header {
		header[i] = src.Attr(i)
	}
	rel, err := dataset.FromCSV(strings.NewReader(strings.Join(header, ",")+"\n"), src.Name())
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestIncrementalStationaryStream(t *testing.T) {
	src, err := bn.PostalChain(6).Sample(3000, 31)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	inc := NewIncremental(streamRelation(t, src), IncrOptions{
		WindowRows: 500,
		MaxWindows: 4,
		Synth:      Options{IdentitySampler: true, Obs: reg},
	})
	for r := 0; r < src.NumRows(); r++ {
		evs, err := inc.Observe(src.RowStrings(r))
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) != 0 {
			t.Fatalf("stationary stream emitted change event at row %d: %+v", r, evs)
		}
	}
	st := inc.Status()
	if st.Resyntheses != 0 || st.Triggers != 0 {
		t.Fatalf("stationary stream re-synthesized: %+v", st)
	}
	if !st.Synthesized || st.Windows != 6 {
		t.Fatalf("driver state off: %+v", st)
	}
	if got := reg.Counter("drift.windows").Value(); got != 6 {
		t.Fatalf("drift.windows = %d", got)
	}
	if reg.Counter("drift.triggers").Value() != 0 {
		t.Fatal("drift.triggers fired on stationary data")
	}

	// The streamed program is fingerprint-identical to a batch synthesis
	// over the full data: deterministic chain constraints do not depend on
	// which (sufficiently large) sample they were learned from. The batch
	// side loads the same stream into a fresh relation, as the CLI would
	// load a CSV, so both sides intern codes in row order.
	whole := streamRelation(t, src)
	for r := 0; r < src.NumRows(); r++ {
		if err := whole.AppendRow(src.RowStrings(r)); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := Synthesize(whole, Options{IdentitySampler: true})
	if err != nil {
		t.Fatal(err)
	}
	canon, _ := analysis.Canon(batch.Program, sat.DomainsOf(whole))
	if want := fmt.Sprintf("%016x", analysis.Fingerprint(canon)); inc.FingerprintHex() != want {
		t.Fatalf("streamed fingerprint %s != batch %s", inc.FingerprintHex(), want)
	}
}

func TestIncrementalShiftTriggersResynthesis(t *testing.T) {
	src, err := bn.PostalChain(6).Sample(3000, 32)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	inc := NewIncremental(streamRelation(t, src), IncrOptions{
		WindowRows: 500,
		MaxWindows: 4,
		Synth:      Options{IdentitySampler: true, Obs: reg},
	})
	// Clean prefix.
	for r := 0; r < 1500; r++ {
		if _, err := inc.Observe(src.RowStrings(r)); err != nil {
			t.Fatal(err)
		}
	}
	before := inc.FingerprintHex()
	if before == "" {
		t.Fatal("no baseline program after clean prefix")
	}
	// Shifted suffix: City decouples from PostalCode and lands on fresh
	// out-of-dictionary strings.
	cityAt := src.AttrIndex("City")
	var events []ChangeEvent
	for r := 1500; r < 3000; r++ {
		vals := src.RowStrings(r)
		vals[cityAt] = fmt.Sprintf("junk-%d", r%17)
		evs, err := inc.Observe(vals)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, evs...)
	}
	st := inc.Status()
	if st.Triggers == 0 || st.Resyntheses == 0 {
		t.Fatalf("shifted suffix did not trigger re-synthesis: %+v", st)
	}
	if len(events) == 0 {
		t.Fatal("no change events emitted")
	}
	named := false
	for _, ev := range events {
		for _, c := range ev.DriftedColumns {
			if c == "City" {
				named = true
			}
		}
	}
	if !named {
		t.Fatalf("change events do not name the shifted column: %+v", events)
	}
	changed := false
	for _, ev := range events {
		if ev.Changed && ev.OldFingerprint != ev.NewFingerprint {
			changed = true
		}
	}
	if !changed {
		t.Fatalf("constraints did not change under a hard shift: %+v", events)
	}
	if reg.Counter("drift.triggers").Value() != int64(st.Triggers) ||
		reg.Counter("drift.resyntheses").Value() != int64(st.Resyntheses) {
		t.Fatal("drift counters diverge from status")
	}
	if reg.Counter("drift.changes").Value() == 0 {
		t.Fatal("drift.changes never fired")
	}
}

// TestIncrementalBoundedRows: the driver keeps only the rows its ring
// still holds plus the window filling, while Status and ChangeEvent rows
// stay absolute stream positions. Rows already in the relation count
// toward the first window and are dropped once it expires.
func TestIncrementalBoundedRows(t *testing.T) {
	const w, maxWin, pre = 64, 4, 100
	src, err := bn.PostalChain(6).Sample(pre+100*w, 33)
	if err != nil {
		t.Fatal(err)
	}
	rel := streamRelation(t, src)
	for r := 0; r < pre; r++ {
		if err := rel.AppendRow(src.RowStrings(r)); err != nil {
			t.Fatal(err)
		}
	}
	inc := NewIncremental(rel, IncrOptions{WindowRows: w, MaxWindows: maxWin, Synth: Options{IdentitySampler: true}})
	cityAt := src.AttrIndex("City")
	for r := pre; r < src.NumRows(); r++ {
		vals := src.RowStrings(r)
		if r >= src.NumRows()/2 { // drift, so events carry row numbers
			vals[cityAt] = fmt.Sprintf("junk-%d", r%17)
		}
		evs, err := inc.Observe(vals)
		if err != nil {
			t.Fatal(err)
		}
		if r == pre {
			// The pre-loaded rows and this one fill the first window.
			if st := inc.Status(); st.Windows != 1 || st.LiveRows != pre+1 || rel.NumRows() != pre+1 {
				t.Fatalf("first window: %+v with %d rows held, want 1 window of %d rows", st, rel.NumRows(), pre+1)
			}
		}
		for _, ev := range evs {
			if ev.Row != r+1 || (ev.Row-pre-1)%w != 0 {
				t.Fatalf("event at stream row %d reports row %d", r+1, ev.Row)
			}
		}
		if r > pre+(maxWin+1)*w && rel.NumRows() > (maxWin+1)*w {
			t.Fatalf("after %d rows the relation holds %d, want at most %d", r+1, rel.NumRows(), (maxWin+1)*w)
		}
	}
	st := inc.Status()
	if st.Rows != src.NumRows() || st.LiveRows != maxWin*w || st.Windows != 1+(src.NumRows()-pre-1)/w {
		t.Fatalf("status %+v after %d rows", st, src.NumRows())
	}
	if st.Resyntheses == 0 {
		t.Fatalf("the shifted half triggered no re-synthesis: %+v", st)
	}
}

// TestObserveCodesChecksCodes: ObserveCodes takes codes in the driver's
// own dictionaries. A code the dictionary does not hold, or a row of the
// wrong width, is an error and leaves the driver unchanged; valid codes
// observe exactly as Observe of their strings does.
func TestObserveCodesChecksCodes(t *testing.T) {
	src, err := bn.PostalChain(6).Sample(20, 33)
	if err != nil {
		t.Fatal(err)
	}
	byStrings := NewIncremental(streamRelation(t, src), IncrOptions{WindowRows: 1000})
	byCodes := NewIncremental(streamRelation(t, src), IncrOptions{WindowRows: 1000})
	for r := 0; r < src.NumRows(); r++ {
		vals := src.RowStrings(r)
		if _, err := byStrings.Observe(vals); err != nil {
			t.Fatal(err)
		}
		codes := make([]int32, len(vals))
		for a, v := range vals {
			codes[a] = dataset.Missing
			if v != "" {
				codes[a] = byCodes.Rel().Intern(a, v)
			}
		}
		if _, err := byCodes.ObserveCodes(codes); err != nil {
			t.Fatal(err)
		}
	}
	bad := make([]int32, src.NumAttrs())
	bad[0] = int32(byCodes.Rel().Cardinality(0))
	if _, err := byCodes.ObserveCodes(bad); err == nil {
		t.Fatal("code past the dictionary accepted")
	}
	if _, err := byCodes.ObserveCodes(bad[1:]); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := byStrings.Observe([]string{"x"}); err == nil {
		t.Fatal("short string row accepted")
	}
	if a, b := byStrings.Status(), byCodes.Status(); a.Rows != src.NumRows() || a.Rows != b.Rows {
		t.Fatalf("rows observed: strings %d, codes %d, want %d", a.Rows, b.Rows, src.NumRows())
	}
	for a := 0; a < src.NumAttrs(); a++ {
		x, y := byStrings.Rel().Column(a), byCodes.Rel().Column(a)
		if fmt.Sprint(x) != fmt.Sprint(y) {
			t.Fatalf("attribute %d: codes %v via Observe, %v via ObserveCodes", a, x, y)
		}
	}
}
