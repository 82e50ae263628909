// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks the outputs, and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they are
// the per-layer ones, measured by timing calls into each layer's public
// functions from this package (spans are recorded here, never inside the
// program). Every input is generated from -seed. See README.md for the
// workloads and what each metric means on each of them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// workers is the synthesis worker count, sized for a 2-core machine.
const workers = 2

// setupRuns is how many times each workload repeats its set-up; setup_s is
// the median.
const setupRuns = 3

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are printed by every workload under -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"rows_per_s", "rows/s"},
	{"quality", "ratio"},
	{"ok_share", "ratio"},
	{"rss_peak_mb", "MB"},
}

// perLayer are printed by every workload under -trace 1; a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	// synth-paper
	{"dataset.load_s", "s"},
	{"auxdist.sample_s", "s"},
	{"pc.learn_s", "s"},
	{"pc.ci_tests", "count"},
	{"graph.enum_s", "s"},
	{"graph.dags", "count"},
	{"synth.select_s", "s"},
	{"synth.cache_hit_ratio", "ratio"},
	{"synth.cache_lookups", "count"},
	{"synth.pruned", "count"},
	{"synth.deduped", "count"},
	{"synth.solver_calls", "count"},
	{"synth.rest_s", "s"},
	{"synth.traced_pass_s", "s"},
	{"synth_s", "s"},
	{"synth_coverage", "ratio"},
	// batch-rectify
	{"synth.setup_s", "s"},
	{"compile.compile_s", "s"},
	{"dataset.parse_s", "s"},
	{"dsl.parse_s", "s"},
	{"core.apply_s", "s"},
	{"dataset.write_s", "s"},
	{"core.rectify_rest_s", "s"},
	{"core.stream_s", "s"},
	{"core.stream_rest_s", "s"},
	{"core.stream_path_rest_s", "s"},
	{"core.stream_allocs_per_row", "count"},
	{"sqlexec.guard_s", "s"},
	{"sqlexec.inference_s", "s"},
	{"sqlexec.rest_s", "s"},
	{"core.rows_flagged", "count"},
	{"core.cells_changed", "count"},
	{"stream_rows_per_s", "rows/s"},
	{"rectify_rows_per_s", "rows/s"},
	{"sql_query_ms", "ms"},
	{"detect_f1", "ratio"},
	// serve-mixed
	{"serve.handler_p50_ms", "ms"},
	{"serve.net_p50_ms", "ms"},
	{"serve.mixed_rtt_p50_ms", "ms"},
	{"serve.daemon_p50_ms", "ms"},
	{"serve.wait_p99_ms", "ms"},
	{"serve.detect_ns_per_row", "ns"},
	{"serve.batch_rows_per_s.csv-check", "rows/s"},
	{"serve.batch_rows_per_s.csv-rectify", "rows/s"},
	{"serve.batch_rows_per_s.ndjson", "rows/s"},
	{"serve.resp_bytes_per_row", "bytes"},
	{"serve.load_ms", "ms"},
	{"dsl.parse_ms", "ms"},
	{"analysis.fingerprint_ms", "ms"},
	{"compile.compile_ms", "ms"},
	{"drift.observe_ns_per_row", "ns"},
	{"drift.flush_ms", "ms"},
	{"drift.resynth_ms", "ms"},
	{"drift.windows", "count"},
	{"drift.resyntheses", "count"},
	{"serve.rejected", "count"},
	{"serve.errors", "count"},
	{"gen.lateness_p99_ms", "ms"},
	{"serve_check_p50_ms", "ms"},
	{"serve_check_p99_ms", "ms"},
	{"serve_batch_rows_per_s", "rows/s"},
	{"serve_upload_ms", "ms"},
	{"serve_max_rps", "1/s"},
	// every workload
	{"trace.overhead_pct", "%"},
	{"machine.probe_ms", "ms"},
	{"machine.echo_ms", "ms"},
	{"raw.setup_s", "s"},
	{"raw.latency_ms", "ms"},
	{"raw.rows_per_s", "rows/s"},
}

// report accumulates one run's counts, failures and metrics.
type report struct {
	attempted, failed int
	failures          []string
	e2e, layer        map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// op counts one attempted operation, failed when err is non-nil.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err.Error())
	}
}

// fail counts an operation that was attempted (already counted) but failed
// or produced wrong output.
func (r *report) fail(msg string) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
}

// check counts one output check as an attempted operation.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(fmt.Sprintf(format, args...))
	}
}

type workload func(cfg config, rep *report) error

var workloads = map[string]workload{
	"synth-paper":   runSynthPaper,
	"batch-rectify": runBatchRectify,
	"serve-mixed":   runServeMixed,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: synth-paper | batch-rectify | serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "measured time in seconds")
	traced := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown -workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1}
	rep := newReport()
	if err := w(cfg, rep); err != nil {
		return err
	}
	rep.e2e["ok_share"] = 1 - float64(rep.failed)/float64(max(rep.attempted, 1))
	rep.e2e["rss_peak_mb"] = peakRSSMB()
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	fmt.Fprintf(os.Stderr, "machine probe %.3f ms; raw setup_s %.6g latency_ms %.6g rows_per_s %.6g\n",
		rep.layer["machine.probe_ms"], rep.layer["raw.setup_s"], rep.layer["raw.latency_ms"], rep.layer["raw.rows_per_s"])
	defs, vals := endToEnd, rep.e2e
	if cfg.trace {
		defs, vals = perLayer, rep.layer
	}
	printTable(defs, vals)
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", *name, d.name)
		}
		out.Metrics[d.name] = jsonMetric{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes the value with all its digits; NaN and infinities,
// which JSON cannot carry, become 0.
func (m jsonMetric) MarshalJSON() ([]byte, error) {
	v := m.Value
	if v != v || v > 1e308 || v < -1e308 {
		v = 0
	}
	return []byte(`{"value":` + strconv.FormatFloat(v, 'g', -1, 64) + `,"unit":` + strconv.Quote(m.Unit) + `}`), nil
}

// printTable writes the metrics human-readably to stderr.
func printTable(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// dumpSpans writes a traced run's spans under .bench_build/ in the working
// directory, where run.sh keeps its build outputs.
func dumpSpans(rec *recorder, workload string, seed int64) {
	if rec == nil {
		return
	}
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "spans not written:", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	f, err := os.Create(path)
	if err == nil {
		err = rec.writeJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spans not written:", err)
	}
}
