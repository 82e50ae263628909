package core

import (
	"fmt"
	"io"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// StreamStats summarizes a streaming guard pass.
type StreamStats struct {
	Rows    int
	Flagged int
	Changed int // cells rewritten by coerce/rectify
}

// StreamCSV vets a CSV stream row by row against the guard, writing the
// (possibly repaired) rows to w — the online half of Example 1.2 for data
// pipelines that never materialize a relation. The header must name each
// of schema's attributes once, in any order. Cells are encoded read-only
// against schema's dictionaries (see dataset.Encoder): unseen values get
// codes local to this pass and are written back as they arrived, and
// schema is never modified, so concurrent passes may share it. Under
// Raise, the first violating row aborts the stream.
func (g *Guard) StreamCSV(r io.Reader, w io.Writer, schema *dataset.Relation) (*StreamStats, error) {
	ssp := g.tr.Start("stream.csv").Str("strategy", g.strategy.String()).Str("engine", g.eng.Backend())
	defer ssp.End()
	rsc := ssp.Scope()
	cr, err := dataset.NewReader(r)
	if err != nil {
		return nil, err
	}
	enc := dataset.NewEncoder(schema)
	colOf, err := enc.MapHeader(cr.Header())
	if err != nil {
		return nil, err
	}
	cw := dataset.NewWriter(w, enc, colOf)
	defer func() { _ = cw.Flush() }() // rows before an abort still go out
	if err := cw.WriteHeader(cr.Header()); err != nil {
		return nil, err
	}

	stats := &StreamStats{}
	row := make([]int32, schema.NumAttrs())
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return stats, err
		}
		var rsp trace.Span
		if g.tr.Enabled() && stats.Rows%g.sampleEvery == 0 {
			rsp = rsc.Start("stream.row").Int("row", int64(stats.Rows))
		}
		for i, v := range rec {
			row[colOf[i]] = enc.EncodeBytes(colOf[i], v)
		}
		vs, changed, err := g.Step(row)
		if len(vs) > 0 {
			// Count the violation before a Raise abort: the row was
			// detected even though it is not written downstream.
			stats.Flagged++
			g.metrics.streamFlagged.Inc()
		}
		rsp.End()
		if err != nil {
			return stats, fmt.Errorf("core: row %d: %w", stats.Rows, err)
		}
		stats.Changed += changed
		g.metrics.streamChanged.Add(int64(changed))
		if err := cw.Write(row); err != nil {
			return stats, err
		}
		stats.Rows++
		g.metrics.streamRows.Inc()
	}
	return stats, cw.Flush()
}

// ExplainViolation renders a violation in terms of schema's names, for
// logs and error messages.
func ExplainViolation(v dsl.Violation, schema *dataset.Relation) string {
	return fmt.Sprintf("statement %d: %s should be %q (found %q)",
		v.Stmt, schema.Attr(v.Attr),
		schema.Dict(v.Attr).Value(v.Expected), schema.Dict(v.Attr).Value(v.Actual))
}
