package serve

import (
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// requestHeader carries the request ID: echoed back verbatim when the
// client supplies one (making responses reproducible byte for byte), or
// filled with a generated process-unique ID otherwise. The same ID tags
// the request's access-log record, flight-recorder entry, and trace
// spans, so one slow request can be followed across all three.
const requestHeader = "X-Guardrail-Request"

// reqIDMax caps a client-supplied request ID; longer IDs are truncated
// so a hostile header cannot bloat logs.
const reqIDMax = 128

// reqIDBase is the per-process random prefix of generated request IDs;
// combined with a sequence number, IDs are unique across restarts
// without coordination. crypto/rand because vetguard bans the global
// math/rand state; on read failure the prefix degrades to a clock value.
var reqIDBase = func() string {
	var b [6]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}()

var reqIDSeq atomic.Int64

// requestID returns the client-supplied ID (truncated to reqIDMax, with
// control characters replaced) or generates one.
func requestID(r *http.Request) string {
	id := r.Header.Get(requestHeader)
	if id == "" {
		return fmt.Sprintf("%s-%d", reqIDBase, reqIDSeq.Add(1))
	}
	if len(id) > reqIDMax {
		id = id[:reqIDMax]
	}
	clean := []byte(id)
	for i, c := range clean {
		if c < 0x20 || c == 0x7f {
			clean[i] = '_'
		}
	}
	return string(clean)
}

// reqInfo is the per-request telemetry context threaded through every
// gated handler: the trace scope plus the fields handlers fill in as the
// request reveals them (dataset, program fingerprint, row counts). The
// gate builds one per request and finishRequest turns it into the
// access-log record and flight-recorder entry.
type reqInfo struct {
	Scope trace.Scope

	id          string
	method      string
	path        string
	endpoint    string
	slot        int
	dataset     string
	fingerprint string
	engine      string
	rowsIn      int64
	rowsFlagged int64
	waitNS      int64
	latencyNS   int64

	// Lazily-resolved labeled row counters (see Server.countRow).
	rowCounters        bool
	rowsOKCounter      *obs.Counter
	rowsFlaggedCounter *obs.Counter

	// The drift feed the request's rows go to, resolved on its first row
	// (see Server.observeDrift); nil when the monitor is off or the
	// request's program version is no longer live.
	driftResolved bool
	drift         *driftFeed
}

// errBodyMax bounds how much of an error response body is kept as the
// access-log error note.
const errBodyMax = 256

// statusWriter records the response status and size, and retains the
// first errBodyMax bytes of an error (>= 400) body as a log note. It
// implements Unwrap so http.NewResponseController reaches the underlying
// writer's Flush — a plain embedded interface would not promote it.
type statusWriter struct {
	http.ResponseWriter
	status  int
	bytes   int64
	errBody []byte
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.status >= 400 && len(w.errBody) < errBodyMax {
		keep := errBodyMax - len(w.errBody)
		if keep > len(p) {
			keep = len(p)
		}
		w.errBody = append(w.errBody, p[:keep]...)
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Status returns the response status, 200 when the handler never called
// WriteHeader explicitly.
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// errNote renders the retained error-body prefix as a single-line note.
func (w *statusWriter) errNote() string {
	if len(w.errBody) == 0 {
		return ""
	}
	note := make([]byte, len(w.errBody))
	for i, c := range w.errBody {
		if c == '\n' || c == '\r' {
			c = ' '
		}
		note[i] = c
	}
	return string(note)
}

// reqRecord is one structured access-log line (NDJSON) and one flight
// recorder entry. All durations are nanoseconds.
type reqRecord struct {
	Time        string `json:"time"`
	ID          string `json:"id"`
	Method      string `json:"method"`
	Path        string `json:"path"`
	Endpoint    string `json:"endpoint"`
	Dataset     string `json:"dataset,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Engine      string `json:"engine,omitempty"`
	Status      int    `json:"status"`
	RowsIn      int64  `json:"rows_in"`
	RowsFlagged int64  `json:"rows_flagged"`
	Bytes       int64  `json:"bytes"`
	WaitNS      int64  `json:"wait_ns"`
	LatencyNS   int64  `json:"latency_ns"`
	Error       string `json:"error,omitempty"`
}

// accessLogger serializes reqRecords to one writer as NDJSON. Writes are
// mutex-serialized so concurrent requests never interleave mid-line; a
// failed write drops that record (counted) rather than blocking or
// killing the request that triggered it.
type accessLogger struct {
	mu    sync.Mutex
	w     io.Writer
	drops *obs.Counter
}

func newAccessLogger(w io.Writer, drops *obs.Counter) *accessLogger {
	if w == nil {
		return nil
	}
	return &accessLogger{w: w, drops: drops}
}

func (l *accessLogger) log(rec reqRecord) {
	if l == nil {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		l.drops.Inc()
		return
	}
	data = append(data, '\n')
	l.mu.Lock()
	_, werr := l.w.Write(data)
	l.mu.Unlock()
	if werr != nil {
		l.drops.Inc()
	}
}
