// Command benchjson converts `go test -bench` text output into a stable
// JSON record — the BENCH_<date>.json files the CI bench lane archives to
// track the repo's performance trajectory — and can print a
// serial-vs-parallel speedup table for the worker-sweep benches.
//
//	go test -bench=. -benchmem -count=3 -run='^$' . | tee bench.txt
//	benchjson -in bench.txt -out BENCH_2026-08-05.json -summary
//
// With -summary, benchmarks named <Base>/workers=<N> are grouped and the
// median ns/op of each worker count is compared against workers=1, emitted
// as a GitHub-flavored markdown table for the job summary. Only the
// standard library is used.
//
// With -serve-report, the exact request-latency histograms from a
// `guardrail serve ... -report report.json` run are folded into the same
// record as a `serve` section (p50/p99/p999/max per metric and label
// set), and -in-json extends an already-written BENCH_*.json in place:
//
//	benchjson -in "" -in-json BENCH_2026-08-05.json \
//	  -serve-report serve-report.json -out BENCH_2026-08-05.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Sample is one benchmark line's measurements.
type Sample struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	Iterations  int64   `json:"iterations"`
}

// Benchmark aggregates the samples of one benchmark name across -count
// repetitions, in input order.
type Benchmark struct {
	Name    string   `json:"name"`
	Samples []Sample `json:"samples"`
	// MedianNs is the median ns/op across samples, the number the
	// speedup summary and trend tracking key on.
	MedianNs float64 `json:"median_ns_per_op"`
}

// ServeLatency is one exact serving histogram lifted out of a
// `guardrail serve -report` run report: the daemon's request-latency
// distribution keyed by metric name and label set, reduced to the
// trend-tracked tail quantiles. Quantiles are nearest-rank upper bounds
// from the exact log-linear buckets (≤1/32 relative error), so they are
// comparable run-to-run without sampling noise.
type ServeLatency struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  int64             `json:"count"`
	MeanNs float64           `json:"mean_ns"`
	P50Ns  int64             `json:"p50_ns"`
	P99Ns  int64             `json:"p99_ns"`
	P999Ns int64             `json:"p999_ns"`
	MaxNs  int64             `json:"max_ns"`
}

// Report is the archived JSON document.
type Report struct {
	Date       string         `json:"date"`
	Goos       string         `json:"goos,omitempty"`
	Goarch     string         `json:"goarch,omitempty"`
	Pkg        string         `json:"pkg,omitempty"`
	CPU        string         `json:"cpu,omitempty"`
	Benchmarks []Benchmark    `json:"benchmarks"`
	Serve      []ServeLatency `json:"serve,omitempty"`
}

func main() {
	in := flag.String("in", "-", "bench output file; - reads stdin, empty skips bench input")
	inJSON := flag.String("in-json", "", "existing BENCH_*.json to extend instead of starting fresh")
	serveReport := flag.String("serve-report", "", "serve run-report JSON (-report output) whose exact histograms become the serve section")
	out := flag.String("out", "", "output JSON path (default BENCH_<utc-date>.json)")
	date := flag.String("date", "", "date stamp for the record (default today, UTC)")
	summary := flag.Bool("summary", false, "print a serial-vs-parallel markdown summary to stdout")
	flag.Parse()

	if err := run(*in, *inJSON, *serveReport, *out, *date, *summary); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in, inJSON, serveReport, out, date string, summary bool) error {
	rep := &Report{}
	if inJSON != "" {
		data, err := os.ReadFile(inJSON)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, rep); err != nil {
			return fmt.Errorf("parse %s: %w", inJSON, err)
		}
	}
	if in != "" {
		var r io.Reader = os.Stdin
		if in != "-" {
			f, err := os.Open(in)
			if err != nil {
				return err
			}
			defer func() { _ = f.Close() }() // read side: Close error carries no data
			r = f
		}
		parsed, err := Parse(r)
		if err != nil {
			return err
		}
		if rep.Goos == "" {
			rep.Goos, rep.Goarch, rep.Pkg, rep.CPU = parsed.Goos, parsed.Goarch, parsed.Pkg, parsed.CPU
		}
		rep.Benchmarks = append(rep.Benchmarks, parsed.Benchmarks...)
	}
	if serveReport != "" {
		serve, err := LoadServeReport(serveReport)
		if err != nil {
			return err
		}
		rep.Serve = append(rep.Serve, serve...)
	}
	if len(rep.Benchmarks) == 0 && len(rep.Serve) == 0 {
		return fmt.Errorf("no benchmark lines or serve histograms found")
	}
	if date == "" {
		date = time.Now().UTC().Format("2006-01-02")
	}
	rep.Date = date
	if out == "" {
		out = "BENCH_" + date + ".json"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks, %d serve histograms to %s\n",
		len(rep.Benchmarks), len(rep.Serve), out)
	if summary {
		fmt.Print(Summary(rep))
	}
	return nil
}

// LoadServeReport extracts the histogram section of an obs run report
// (the `hists` array of HistSnapshot objects) into ServeLatency records,
// sorted by name then label set. Every histogram is taken — request
// latencies and, when the daemon re-synthesized, its stage timers
// (pc.learn, drift.window_merge, ...). Empty histograms are skipped.
// Only the fields benchjson needs are decoded; unknown fields — the
// bucket arrays, counters — are ignored.
func LoadServeReport(path string) ([]ServeLatency, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Hists []struct {
			Name   string `json:"name"`
			Labels []struct {
				Key   string `json:"key"`
				Value string `json:"value"`
			} `json:"labels"`
			Count  int64 `json:"count"`
			SumNS  int64 `json:"sum_ns"`
			MaxNS  int64 `json:"max_ns"`
			P50NS  int64 `json:"p50_ns"`
			P99NS  int64 `json:"p99_ns"`
			P999NS int64 `json:"p999_ns"`
		} `json:"hists"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	out := make([]ServeLatency, 0, len(doc.Hists))
	for _, h := range doc.Hists {
		if h.Count == 0 {
			continue
		}
		s := ServeLatency{
			Name:   h.Name,
			Count:  h.Count,
			MeanNs: float64(h.SumNS) / float64(h.Count),
			P50Ns:  h.P50NS,
			P99Ns:  h.P99NS,
			P999Ns: h.P999NS,
			MaxNs:  h.MaxNS,
		}
		if len(h.Labels) > 0 {
			s.Labels = make(map[string]string, len(h.Labels))
			for _, l := range h.Labels {
				s.Labels[l.Key] = l.Value
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelKey(out[i].Labels) < labelKey(out[j].Labels)
	})
	return out, nil
}

// labelKey renders a label map as a deterministic sort key.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(labels[k])
		sb.WriteByte(',')
	}
	return sb.String()
}

// Parse reads `go test -bench` output. Benchmark lines look like
//
//	BenchmarkName/sub-8   	     100	  11309297 ns/op	 5716236 B/op	   50010 allocs/op
//
// Header lines (goos:, goarch:, pkg:, cpu:) annotate the report.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	index := map[string]int{} // name -> position in rep.Benchmarks
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := trimProcSuffix(fields[0])
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		s := Sample{Iterations: iters}
		// The remainder is value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.NsPerOp = v
			case "B/op":
				s.BytesPerOp = v
			case "allocs/op":
				s.AllocsPerOp = v
			}
		}
		if s.NsPerOp == 0 {
			continue
		}
		pos, ok := index[name]
		if !ok {
			pos = len(rep.Benchmarks)
			index[name] = pos
			rep.Benchmarks = append(rep.Benchmarks, Benchmark{Name: name})
		}
		rep.Benchmarks[pos].Samples = append(rep.Benchmarks[pos].Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i := range rep.Benchmarks {
		rep.Benchmarks[i].MedianNs = medianNs(rep.Benchmarks[i].Samples)
	}
	return rep, nil
}

// trimProcSuffix drops the trailing -<GOMAXPROCS> the bench runner
// appends: BenchmarkFoo/workers=4-8 -> BenchmarkFoo/workers=4.
func trimProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func medianNs(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = s.NsPerOp
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// Summary renders the serial-vs-parallel comparison: every benchmark
// family with /workers=N variants becomes a markdown table row per worker
// count, with speedup relative to that family's workers=1 baseline.
func Summary(rep *Report) string {
	type variant struct {
		workers int
		ns      float64
	}
	families := map[string][]variant{}
	var order []string
	for _, b := range rep.Benchmarks {
		base, w, ok := splitWorkers(b.Name)
		if !ok {
			continue
		}
		if _, seen := families[base]; !seen {
			order = append(order, base)
		}
		families[base] = append(families[base], variant{workers: w, ns: b.MedianNs})
	}
	var sb strings.Builder
	sb.WriteString("## Serial vs parallel (median ns/op)\n\n")
	if len(order) == 0 {
		sb.WriteString("No /workers= benchmark variants found.\n")
		sb.WriteString(serveSummary(rep))
		return sb.String()
	}
	sb.WriteString("| Benchmark | Workers | ns/op | Speedup vs serial |\n")
	sb.WriteString("|---|---:|---:|---:|\n")
	for _, base := range order {
		vs := families[base]
		sort.Slice(vs, func(i, j int) bool { return vs[i].workers < vs[j].workers })
		var serial float64
		for _, v := range vs {
			if v.workers == 1 {
				serial = v.ns
			}
		}
		for _, v := range vs {
			speedup := "—"
			if serial > 0 && v.ns > 0 {
				speedup = fmt.Sprintf("%.2fx", serial/v.ns)
			}
			fmt.Fprintf(&sb, "| %s | %d | %.0f | %s |\n", base, v.workers, v.ns, speedup)
		}
	}
	sb.WriteString(serveSummary(rep))
	return sb.String()
}

// serveSummary renders the serve section, when present, as a latency
// table for the job summary. Empty string otherwise.
func serveSummary(rep *Report) string {
	if len(rep.Serve) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("\n## Serve latency (exact histograms)\n\n")
	sb.WriteString("| Metric | Labels | Count | p50 | p99 | p99.9 | max |\n")
	sb.WriteString("|---|---|---:|---:|---:|---:|---:|\n")
	for _, s := range rep.Serve {
		labels := strings.TrimSuffix(labelKey(s.Labels), ",")
		if labels == "" {
			labels = "—"
		}
		fmt.Fprintf(&sb, "| %s | %s | %d | %s | %s | %s | %s |\n",
			s.Name, labels, s.Count,
			time.Duration(s.P50Ns), time.Duration(s.P99Ns),
			time.Duration(s.P999Ns), time.Duration(s.MaxNs))
	}
	return sb.String()
}

// splitWorkers recognizes names of the form <Base>/workers=<N>.
func splitWorkers(name string) (base string, workers int, ok bool) {
	i := strings.LastIndex(name, "/workers=")
	if i < 0 {
		return "", 0, false
	}
	w, err := strconv.Atoi(name[i+len("/workers="):])
	if err != nil {
		return "", 0, false
	}
	return name[:i], w, true
}
