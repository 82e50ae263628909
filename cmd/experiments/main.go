// Command experiments regenerates the paper's evaluation tables and
// figures (see DESIGN.md §4 for the experiment index):
//
//	experiments -scale 0.1 table3
//	experiments -datasets 1,2,6 fig6
//	experiments all
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/experiments"
	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/debug"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

type renderer interface{ Render() string }

func main() {
	scale := flag.Float64("scale", 0.1, "row-count scale in (0,1]; 1.0 reproduces Table 2 sizes")
	seed := flag.Int64("seed", 1, "experiment seed")
	eps := flag.Float64("eps", 0, "Guardrail epsilon (0 = default)")
	datasets := flag.String("datasets", "", "comma-separated Table 2 ids (default: all 12)")
	fig7Dataset := flag.Int("fig7-dataset", 6, "dataset id for the fig7 epsilon sweep")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "synthesis worker-pool size; 1 forces the serial pipeline")
	engine := flag.String("engine", "ast", "guard execution backend for every experiment: ast|compiled")
	report := flag.String("report", "", "write a JSON run-report (counters + stage timings) to this path")
	debugAddr := flag.String("debug-addr", "", "serve live expvar metrics, Prometheus /metrics and pprof on this address (e.g. localhost:6060)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (Perfetto-loadable) to this path")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: experiments [flags] <table1|table3|table4|table5|table6|table7|table8|fig6|fig7|smt|gnt|all>")
		os.Exit(2)
	}

	reg := obs.New()
	if *debugAddr != "" {
		srv, err := debug.Serve(*debugAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer func() { _ = srv.Close() }() // best-effort teardown at process exit
		fmt.Fprintf(os.Stderr, "debug server listening on http://%s/debug/vars\n", srv.Addr)
	}

	var tr *trace.Tracer
	if *tracePath != "" {
		w := *workers
		if w < 1 {
			w = 1
		}
		tr = trace.New(w)
	}

	newEngine, err := core.EngineNamed(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, Epsilon: *eps, Workers: *workers, Obs: reg, Trace: tr.Root(), Engine: newEngine}
	if *datasets != "" {
		for _, part := range strings.Split(*datasets, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: bad dataset id %q\n", part)
				os.Exit(2)
			}
			cfg.Datasets = append(cfg.Datasets, id)
		}
	}

	runners := map[string]func() (renderer, error){
		"table1": func() (renderer, error) { return experiments.Table1(cfg) },
		"table3": func() (renderer, error) { return experiments.Table3(cfg) },
		"table4": func() (renderer, error) { return experiments.Table4(cfg) },
		"table5": func() (renderer, error) { return experiments.Table5(cfg) },
		"table6": func() (renderer, error) { return experiments.Table6(cfg) },
		"table7": func() (renderer, error) { return experiments.Table7(cfg) },
		"table8": func() (renderer, error) { return experiments.Table8(cfg) },
		"fig6":   func() (renderer, error) { return experiments.Fig6(cfg) },
		"fig7":   func() (renderer, error) { return experiments.Fig7(cfg, *fig7Dataset) },
		"smt":    func() (renderer, error) { return experiments.SMTBaseline(cfg) },
		"gnt":    func() (renderer, error) { return experiments.AblationGNT(cfg) },
	}
	order := []string{"table1", "table3", "table4", "table5", "table6", "table7", "table8", "fig6", "fig7", "smt", "gnt"}

	which := flag.Arg(0)
	var toRun []string
	if which == "all" {
		toRun = order
	} else if _, ok := runners[which]; ok {
		toRun = []string{which}
	} else {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", which)
		os.Exit(2)
	}
	for _, name := range toRun {
		fmt.Printf("=== %s (scale %g, seed %d) ===\n", name, *scale, *seed)
		res, err := runners[name]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
	}
	if summary := reg.StageSummary(); summary != "" {
		fmt.Fprint(os.Stderr, summary)
	}
	if tr != nil {
		if err := writeTrace(tr, *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s (load in Perfetto or chrome://tracing)\n", *tracePath)
		if path := tr.CriticalPath(); len(path) > 0 {
			fmt.Fprint(os.Stderr, trace.FormatCriticalPath(path))
		}
	}
	if *report != "" {
		if err := obs.WriteReportWithTrace(*report, "experiments "+which, reg, tr); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

// writeTrace exports the tracer as a Chrome trace-event file.
func writeTrace(tr *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tr.WriteChrome(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
