package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/synth"
)

// cmdResynth streams a CSV through the incremental, drift-aware
// synthesis driver: rows fill sliding windows of mergeable contingency
// tables, the first full window synthesizes an initial program, and
// later windows re-synthesize (warm-starting PC from the previous
// skeleton) only when their statistics drift from the baseline. The
// final program goes to -out; -json emits the driver status — windows,
// triggers, and the constraint-change event stream with old/new
// semantic fingerprints comparable to `guardrail analyze -json`.
func cmdResynth(args []string) error {
	fs := flag.NewFlagSet("resynth", flag.ContinueOnError)
	in := fs.String("in", "", "CSV stream to observe in row order (required)")
	out := fs.String("out", "", "write the final synthesized program to this path")
	asJSON := fs.Bool("json", false, "emit the driver status (events, fingerprints) as JSON on stdout")
	window := fs.Int("window", 256, "rows per drift window")
	windows := fs.Int("windows", 8, "sliding ring capacity in windows")
	alpha := fs.Float64("drift-alpha", 1e-3, "per-variable drift p-value threshold")
	eps := fs.Float64("eps", 0.02, "epsilon-validity threshold")
	seed := fs.Int64("seed", 1, "sampling seed")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "synthesis worker-pool size; 1 forces the serial pipeline")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("resynth: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }() // read side: Close error carries no data
	cr, err := dataset.NewReader(f)
	if err != nil {
		return fmt.Errorf("resynth: %s: %w", *in, err)
	}

	reg, tr, finish, err := of.start("resynth", *workers)
	if err != nil {
		return err
	}
	rel := dataset.New(*in, cr.Header())
	inc := synth.NewIncremental(rel, synth.IncrOptions{
		WindowRows: *window,
		MaxWindows: *windows,
		DriftAlpha: *alpha,
		Synth: synth.Options{
			Epsilon: *eps, Seed: *seed, IdentitySampler: true,
			Workers: *workers, Obs: reg, Trace: tr.Root(),
		},
	})
	vals := make([]string, len(cr.Header()))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("resynth: %s: %w", *in, err)
		}
		for i, v := range rec {
			vals[i] = string(v)
		}
		evs, err := inc.Observe(vals)
		if err != nil {
			return err
		}
		for _, ev := range evs {
			fmt.Fprintf(os.Stderr, "row %d: drift in %v — program %s -> %s (changed=%v)\n",
				ev.Row, ev.DriftedColumns, ev.OldFingerprint, ev.NewFingerprint, ev.Changed)
		}
	}
	// Trailing rows still participate: force the partial window through.
	evs, err := inc.Flush()
	if err != nil {
		return err
	}
	for _, ev := range evs {
		fmt.Fprintf(os.Stderr, "row %d: drift in %v — program %s -> %s (changed=%v)\n",
			ev.Row, ev.DriftedColumns, ev.OldFingerprint, ev.NewFingerprint, ev.Changed)
	}

	st := inc.Status()
	if st.Synthesized {
		text := dsl.Format(inc.Program(), rel)
		if *out != "" {
			if err := os.WriteFile(*out, []byte(text+"\n"), 0o644); err != nil {
				return err
			}
		} else if !*asJSON {
			fmt.Println(text)
		}
	} else if *out != "" {
		return fmt.Errorf("resynth: stream too short to synthesize (%d rows, window %d)", st.Rows, *window)
	}
	if *asJSON {
		if err := printJSON(st); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "observed %d rows (%d live) in %d windows: %d drift triggers, %d re-syntheses, %d constraint changes, fingerprint %s\n",
		st.Rows, st.LiveRows, st.Windows, st.Triggers, st.Resyntheses, st.Changes, st.Fingerprint)
	return finish()
}
