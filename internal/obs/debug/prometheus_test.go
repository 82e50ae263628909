package debug

import (
	"net/http"
	"regexp"
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/obs"
)

// TestWriteMetricsGolden pins the Prometheus text rendering exactly: a
// registry with known contents must produce this byte-for-byte output
// (exposition format 0.0.4 — TYPE lines, counter/gauge samples, and
// cumulative histograms in seconds, stage timers included).
func TestWriteMetricsGolden(t *testing.T) {
	reg := obs.New()
	reg.Counter("pc.ci_tests").Add(42)
	reg.Counter("synth.dags").Add(7)
	reg.Gauge("synth.workers").Set(4)
	// A stage timer renders exactly like a request-latency histogram.
	h := reg.Histogram("synth.learn")
	h.Observe(1000) // log-linear bucket [992,1007] ns
	h.Observe(1000)
	h.Observe(50000) // log-linear bucket [49152,50175] ns
	cv := reg.CounterVec("serve.endpoint.requests", "endpoint", "status")
	cv.With("check", "429").Inc()
	cv.With("check", "200").Add(5)
	eh := reg.Histogram("serve.request.check")
	eh.Observe(10)  // single-value bucket: le 10 ns
	eh.Observe(100) // log-linear bucket [100,101] ns
	reg.HistogramVec("serve.request.latency", "endpoint").With("check").Observe(32)

	var b strings.Builder
	WriteMetrics(&b, reg.Snapshot())
	want := `# TYPE guardrail_pc_ci_tests counter
guardrail_pc_ci_tests 42
# TYPE guardrail_synth_dags counter
guardrail_synth_dags 7
# TYPE guardrail_serve_endpoint_requests counter
guardrail_serve_endpoint_requests{endpoint="check",status="200"} 5
guardrail_serve_endpoint_requests{endpoint="check",status="429"} 1
# TYPE guardrail_synth_workers gauge
guardrail_synth_workers 4
# TYPE guardrail_serve_request_check_seconds histogram
guardrail_serve_request_check_seconds_bucket{le="1e-08"} 1
guardrail_serve_request_check_seconds_bucket{le="1.01e-07"} 2
guardrail_serve_request_check_seconds_bucket{le="+Inf"} 2
guardrail_serve_request_check_seconds_sum 1.1e-07
guardrail_serve_request_check_seconds_count 2
# TYPE guardrail_synth_learn_seconds histogram
guardrail_synth_learn_seconds_bucket{le="1.007e-06"} 2
guardrail_synth_learn_seconds_bucket{le="5.0175e-05"} 3
guardrail_synth_learn_seconds_bucket{le="+Inf"} 3
guardrail_synth_learn_seconds_sum 5.2e-05
guardrail_synth_learn_seconds_count 3
# TYPE guardrail_serve_request_latency_seconds histogram
guardrail_serve_request_latency_seconds_bucket{endpoint="check",le="3.2e-08"} 1
guardrail_serve_request_latency_seconds_bucket{endpoint="check",le="+Inf"} 1
guardrail_serve_request_latency_seconds_sum{endpoint="check"} 3.2e-08
guardrail_serve_request_latency_seconds_count{endpoint="check"} 1
`
	if got := b.String(); got != want {
		t.Errorf("metrics rendering mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// promLine accepts one sample line of the text exposition format:
// metric_name{optional="labels"} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? -?[0-9][0-9eE.+-]*$`)

// TestMetricsEndpoint scrapes /metrics off a live server and validates
// every line parses as Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.New()
	reg.Counter("guard.raise.rows_checked").Add(3)
	reg.Histogram("sql.guard").Observe(1500)
	s, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
	}()

	code, body := get(t, "http://"+s.Addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d\n%s", code, body)
	}
	text := string(body)
	if !strings.Contains(text, "guardrail_guard_raise_rows_checked 3") {
		t.Errorf("missing counter sample:\n%s", text)
	}
	if !strings.Contains(text, "guardrail_sql_guard_seconds_count 1") {
		t.Errorf("missing histogram count:\n%s", text)
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("unexpected comment line %q", line)
			}
			// Stage timers are histograms too: no summary families.
			if kind := line[strings.LastIndexByte(line, ' ')+1:]; kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("unexpected metric kind %q in %q", kind, line)
			}
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("line does not parse as a Prometheus sample: %q", line)
		}
	}
}

// TestPromName pins the name mapping.
func TestPromName(t *testing.T) {
	cases := map[string]string{
		"pc.ci_tests":             "guardrail_pc_ci_tests",
		"guard.raise.rows_ooted":  "guardrail_guard_raise_rows_ooted",
		"weird-name with spaces!": "guardrail_weird_name_with_spaces_",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPromEscape pins label-value escaping per the exposition format.
func TestPromEscape(t *testing.T) {
	cases := map[string]string{
		"plain":             "plain",
		`quo"te`:            `quo\"te`,
		`back\slash`:        `back\\slash`,
		"new\nline":         `new\nline`,
		`all"three\` + "\n": `all\"three\\\n`,
	}
	for in, want := range cases {
		if got := promEscape(in); got != want {
			t.Errorf("promEscape(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWriteMetricsEscapedLabels: a hostile label value renders escaped,
// keeping the exposition parseable.
func TestWriteMetricsEscapedLabels(t *testing.T) {
	reg := obs.New()
	reg.CounterVec("esc", "dataset").With("we\"ird\nname").Inc()
	var b strings.Builder
	WriteMetrics(&b, reg.Snapshot())
	want := "# TYPE guardrail_esc counter\nguardrail_esc{dataset=\"we\\\"ird\\nname\"} 1\n"
	if got := b.String(); got != want {
		t.Errorf("escaped rendering:\ngot  %q\nwant %q", got, want)
	}
}

// TestWriteMetricsEmpty: an empty snapshot renders to nothing rather than
// malformed output.
func TestWriteMetricsEmpty(t *testing.T) {
	var b strings.Builder
	var reg *obs.Registry
	WriteMetrics(&b, reg.Snapshot())
	if b.Len() != 0 {
		t.Errorf("empty snapshot rendered %q", b.String())
	}
}
