package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/dsl/compile"
	"github.com/guardrail-db/guardrail/internal/par"
)

func TestStreamCSVRectifies(t *testing.T) {
	f := setup(t)
	var in bytes.Buffer
	if err := f.dirty.ToCSV(&in); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	g := NewGuard(f.prog, Rectify)
	stats, err := g.StreamCSV(&in, &out, f.dirty.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != f.dirty.NumRows() {
		t.Fatalf("rows = %d, want %d", stats.Rows, f.dirty.NumRows())
	}
	if stats.Flagged == 0 || stats.Changed == 0 {
		t.Fatalf("stream repaired nothing: %+v", stats)
	}
	// The output must re-parse and be violation-free. Parse against the
	// same dictionaries by streaming it once more in ignore mode.
	var second bytes.Buffer
	stats2, err := NewGuard(f.prog, Ignore).StreamCSV(strings.NewReader(out.String()), &second, f.dirty.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Flagged != 0 {
		t.Fatalf("%d rows still violate after streaming rectify", stats2.Flagged)
	}
}

func TestStreamCSVIgnoreKeepsData(t *testing.T) {
	f := setup(t)
	var in bytes.Buffer
	if err := f.dirty.ToCSV(&in); err != nil {
		t.Fatal(err)
	}
	original := in.String()
	var out bytes.Buffer
	stats, err := NewGuard(f.prog, Ignore).StreamCSV(strings.NewReader(original), &out, f.dirty.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Changed != 0 {
		t.Fatalf("ignore changed %d cells", stats.Changed)
	}
	if out.String() != original {
		t.Fatal("ignore altered the stream")
	}
}

func TestStreamCSVRaiseAborts(t *testing.T) {
	f := setup(t)
	var in bytes.Buffer
	if err := f.dirty.ToCSV(&in); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, err := NewGuard(f.prog, Raise).StreamCSV(&in, &out, f.dirty.Clone())
	if err == nil {
		t.Fatal("raise did not abort the stream")
	}
}

func TestStreamCSVErrors(t *testing.T) {
	f := setup(t)
	g := NewGuard(f.prog, Ignore)
	var out bytes.Buffer
	if _, err := g.StreamCSV(strings.NewReader(""), &out, f.dirty); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, err := g.StreamCSV(strings.NewReader("a,b\n1,2\n"), &out, f.dirty); err == nil {
		t.Fatal("wrong header accepted")
	}
}

func TestExplainViolation(t *testing.T) {
	f := setup(t)
	g := NewGuard(f.prog, Ignore)
	rep, err := g.Apply(f.dirty.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i, fl := range rep.Flagged {
		if !fl {
			continue
		}
		row := f.dirty.Row(i, nil)
		vs := f.prog.Detect(row)
		if len(vs) == 0 {
			t.Fatal("flagged row has no violations")
		}
		msg := ExplainViolation(vs[0], f.dirty)
		if !strings.Contains(msg, "should be") {
			t.Fatalf("explanation malformed: %q", msg)
		}
		return
	}
	t.Fatal("no flagged rows")
}

// unseenCityStream holds values the city fixture's dictionaries have
// never seen in both columns, a repeated unseen value and an empty cell.
const unseenCityStream = "zip,city\n10001,Boston\n55555,Atlantis\n94105,Atlantis\n10001,\n"

// TestStreamCSVLeavesSchemaUnchanged: unseen values are encoded with
// pass-local codes and written back as they arrived; the schema's
// dictionaries never grow.
func TestStreamCSVLeavesSchemaUnchanged(t *testing.T) {
	f := newCityFixture(t)
	card := []int{f.rel.Cardinality(0), f.rel.Cardinality(1)}
	for _, tc := range []struct {
		strategy Strategy
		want     string
	}{
		{Ignore, unseenCityStream},
		{Rectify, "zip,city\n10001,NYC\n55555,Atlantis\n94105,SF\n10001,NYC\n"},
	} {
		var out bytes.Buffer
		if _, err := NewGuard(f.prog, tc.strategy).StreamCSV(strings.NewReader(unseenCityStream), &out, f.rel); err != nil {
			t.Fatal(err)
		}
		if out.String() != tc.want {
			t.Errorf("%v output:\n%s\nwant:\n%s", tc.strategy, out.String(), tc.want)
		}
		for a, want := range card {
			if got := f.rel.Cardinality(a); got != want {
				t.Fatalf("%v: attribute %d cardinality %d, want %d", tc.strategy, a, got, want)
			}
		}
	}
}

// TestStreamCSVConcurrentSharedSchema: passes on both engines share one
// schema concurrently; run under -race this pins that StreamCSV only
// reads it.
func TestStreamCSVConcurrentSharedSchema(t *testing.T) {
	f := newCityFixture(t)
	const want = "zip,city\n10001,NYC\n55555,Atlantis\n94105,SF\n10001,NYC\n"
	outs, err := par.Map(context.Background(), 2, 8, func(_ context.Context, i int) (string, error) {
		g := NewGuard(f.prog, Rectify)
		if i%2 == 1 {
			if _, err := g.Compile(compile.Options{}); err != nil {
				return "", err
			}
		}
		var out bytes.Buffer
		_, err := g.StreamCSV(strings.NewReader(unseenCityStream), &out, f.rel)
		return out.String(), err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range outs {
		if got != want {
			t.Errorf("pass %d output:\n%s\nwant:\n%s", i, got, want)
		}
	}
}
