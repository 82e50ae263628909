package debug

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"github.com/guardrail-db/guardrail/internal/obs"
)

// testHookScrape, when non-nil, runs at the top of every /metrics scrape.
// It lets the shutdown regression test hold a scrape in flight while
// Close runs; production leaves it nil.
var testHookScrape func()

// metricsHandler renders the currently-published registry in Prometheus
// text exposition format (version 0.0.4), so a long-running guard process
// can be scraped directly: counters and gauges map one-to-one, and each
// histogram (stage timers included) becomes a cumulative histogram metric
// in seconds with _bucket, _sum and _count samples.
func metricsHandler(w http.ResponseWriter, _ *http.Request) {
	if h := testHookScrape; h != nil {
		h()
	}
	published.mu.Lock()
	reg := published.reg
	published.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, reg.Snapshot())
}

// WriteMetrics renders snap as Prometheus text exposition format. Output
// is deterministic: families are grouped by kind (counters, labeled
// counters, gauges, histograms) and sorted by name (and label values)
// within each group, so the rendering is golden-testable.
func WriteMetrics(w io.Writer, snap obs.Snapshot) {
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := promName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m, m, snap.Counters[name])
	}

	// Labeled counter families: children arrive pre-sorted by name then
	// label values, with each family's children adjacent — one TYPE line
	// per family, one sample line per label set.
	prevFamily := ""
	for _, lc := range snap.LabeledCounters {
		m := promName(lc.Name)
		if m != prevFamily {
			fmt.Fprintf(w, "# TYPE %s counter\n", m)
			prevFamily = m
		}
		fmt.Fprintf(w, "%s%s %d\n", m, promLabels(lc.Labels, ""), lc.Value)
	}

	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", m, m, snap.Gauges[name])
	}

	// Histograms render as classic cumulative histograms: one
	// _bucket{le="..."} line per non-empty bucket (upper bounds converted
	// from nanoseconds to seconds), a +Inf bucket equal to _count, and
	// exact _sum/_count. Empty buckets are elided — cumulative counts at
	// the rendered bounds are unaffected and the line count stays
	// proportional to the latency spread, not the 1249-bucket layout.
	prevFamily = ""
	for _, hs := range snap.Hists {
		m := promName(hs.Name) + "_seconds"
		if m != prevFamily {
			fmt.Fprintf(w, "# TYPE %s histogram\n", m)
			prevFamily = m
		}
		var cum int64
		for _, b := range hs.Buckets {
			cum += b.Count
			if b.UpperNS == math.MaxInt64 {
				continue // the overflow bucket is covered by +Inf below
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", m, promLabels(hs.Labels, promSeconds(b.UpperNS)), cum)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", m, promLabelsInf(hs.Labels), hs.Count)
		fmt.Fprintf(w, "%s_sum%s %s\n", m, promLabels(hs.Labels, ""), promSeconds(hs.SumNS))
		fmt.Fprintf(w, "%s_count%s %d\n", m, promLabels(hs.Labels, ""), hs.Count)
	}
}

// promLabels renders a label set as {k1="v1",...}, appending an le label
// when le is non-empty. An empty label set with no le renders as "".
func promLabels(labels []obs.Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(promEscape(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promLabelsInf is promLabels with le="+Inf" (which promLabels cannot
// express since it escapes nothing into le).
func promLabelsInf(labels []obs.Label) string {
	return promLabels(labels, "+Inf")
}

// promEscape escapes a label value per the text exposition format.
func promEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// promName maps a registry metric name onto the Prometheus namespace:
// prefixed with guardrail_ and with every character outside [a-zA-Z0-9_]
// replaced by an underscore ("pc.ci_tests" → "guardrail_pc_ci_tests").
func promName(name string) string {
	var b strings.Builder
	b.WriteString("guardrail_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promSeconds renders nanoseconds as a seconds float in the shortest
// round-trippable form.
func promSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}
