package core

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
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

// awkward holds values encoding/csv's Writer quotes or writes specially:
// a comma, a quote, a newline, carriage returns, a leading space, tab or
// U+00A0 (a Unicode space) and the `\.` end-of-data marker.
var awkward = []string{"a,b", `say "hi"`, "two\nlines", "cr\rin", "x\r\ny", " lead", "\tlead", "\u00a0lead", `\.`, "plain"}

// writeCSV renders recs as encoding/csv's Writer does.
func writeCSV(t *testing.T, recs [][]string) []byte {
	t.Helper()
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestStreamCSVWritesAsEncodingCSV: StreamCSV's output is byte for byte
// what encoding/csv's Writer writes for the rectified records — for
// dictionary values, values outside the dictionary and empty cells. The
// program rewrites v to "a,b" wherever k is "fix".
func TestStreamCSVWritesAsEncodingCSV(t *testing.T) {
	schemaRecs := [][]string{{"k", "v"}, {"fix", "a,b"}}
	inRecs := [][]string{{"v", "k"}}
	for i, v := range awkward {
		schemaRecs = append(schemaRecs, []string{fmt.Sprint("k", i), v})
		inRecs = append(inRecs, []string{v, fmt.Sprint("k", i)}, []string{v + "!", ""}, []string{"!" + v, "fix"})
	}
	inRecs = append(inRecs, []string{"", ""}, []string{"", "fix"})
	schema, err := dataset.FromCSV(bytes.NewReader(writeCSV(t, schemaRecs)), "s")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := dsl.Parse(`GIVEN k ON v HAVING IF k = "fix" THEN v <- "a,b";`, schema)
	if err != nil {
		t.Fatal(err)
	}
	in := writeCSV(t, inRecs)
	// The expected records are the input as encoding/csv reads it back
	// (a quoted \r\n reads as \n), rectified.
	want, err := csv.NewReader(bytes.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range want[1:] {
		if rec[1] == "fix" {
			rec[0] = "a,b"
		}
	}
	for _, g := range []*Guard{NewGuard(prog, Rectify), CompileEngine(prog, compile.Options{}).Guard(Rectify)} {
		var out bytes.Buffer
		if _, err := g.StreamCSV(bytes.NewReader(in), &out, schema); err != nil {
			t.Fatal(err)
		}
		if w := writeCSV(t, want); !bytes.Equal(out.Bytes(), w) {
			t.Errorf("%s: StreamCSV wrote\n%q\nencoding/csv writes\n%q", g.Engine().Backend(), out.Bytes(), w)
		}
	}
}

// TestStreamCSVAllocsFlat: over values the schema holds, StreamCSV makes
// as many allocations for 10k rows as for 1k: none per row.
func TestStreamCSVAllocsFlat(t *testing.T) {
	f := setup(t)
	var src bytes.Buffer
	if err := f.clean.ToCSV(&src); err != nil {
		t.Fatal(err)
	}
	header, rows, _ := strings.Cut(src.String(), "\n")
	lines := strings.SplitAfter(rows, "\n")
	body := func(n int) []byte {
		b := []byte(header + "\n")
		for i := 0; i < n; i++ {
			b = append(b, lines[i%(len(lines)-1)]...)
		}
		return b
	}
	for _, g := range []*Guard{NewGuard(f.prog, Rectify), CompileEngine(f.prog, compile.Options{}).Guard(Rectify)} {
		allocs := func(data []byte) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := g.StreamCSV(bytes.NewReader(data), io.Discard, f.clean); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a1, a10 := allocs(body(1000)), allocs(body(10000)); a1 != a10 {
			t.Errorf("%s: %v allocations for 1k rows, %v for 10k", g.Engine().Backend(), a1, a10)
		}
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
