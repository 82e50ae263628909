package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// Config parameterizes a Server. The zero value of each field selects a
// production-safe default.
type Config struct {
	// Registry holds the programs to serve. Required.
	Registry *Registry
	// MaxInflight caps concurrently-admitted validation requests; excess
	// requests get 429. Default 64.
	MaxInflight int
	// MaxBody bounds single-row JSON and program-upload request bodies in
	// bytes (streaming batch bodies are unbounded — they are processed
	// row by row in constant memory). Default 1 MiB.
	MaxBody int64
	// DrainTimeout bounds how long Run waits for in-flight requests after
	// its context is cancelled before force-closing. Default 10s.
	DrainTimeout time.Duration
	// Obs receives the serve.* metrics; nil disables instrumentation.
	Obs *obs.Registry
	// Tracer records one span per admitted request when non-nil. Each
	// request's spans go to lane slot+1 (the admission slot is exclusive
	// while the request is in flight, preserving single-writer lanes);
	// slots beyond the tracer's lane count are served untraced.
	Tracer *trace.Tracer
	// Drift configures the observed-row drift monitor behind GET
	// /v1/drift. Disabled by the zero value.
	Drift DriftConfig
	// AccessLog receives one NDJSON record per gated request — including
	// 429 rejections — with request ID, dataset, row counts, admission
	// wait, and latency. Nil disables access logging.
	AccessLog io.Writer
	// FlightSize caps the flight recorder's recent-request ring; 0
	// selects 256, negative disables the recorder entirely.
	FlightSize int
	// FlightDump, when non-nil, receives an indented JSON flight dump
	// each time the process gets SIGQUIT while Run is live.
	FlightDump io.Writer
}

func (c Config) maxInflight() int {
	if c.MaxInflight > 0 {
		return c.MaxInflight
	}
	return 64
}

func (c Config) maxBody() int64 {
	if c.MaxBody > 0 {
		return c.MaxBody
	}
	return 1 << 20
}

func (c Config) drainTimeout() time.Duration {
	if c.DrainTimeout > 0 {
		return c.DrainTimeout
	}
	return 10 * time.Second
}

// serveMetrics holds the server's pre-resolved metric handles; nil
// handles (from a nil registry) make every update a free no-op.
//
// The unlabeled serve.* counters are the stable aggregate families the
// run-report and CI assert on; the labeled families alongside them split
// the same traffic by dimension. Request latencies live in exact
// mergeable histograms (obs.Hist, the same kind that times the pipeline
// stages) — lock-free on the hot path, quantiles over every request ever
// served.
type serveMetrics struct {
	requests     *obs.Counter
	rows         *obs.Counter
	flagged      *obs.Counter
	violations   *obs.Counter
	cellsChanged *obs.Counter
	rejected     *obs.Counter
	errors       *obs.Counter
	logDrops     *obs.Counter
	inflight     *obs.Gauge
	histCheck    *obs.Hist
	histRectify  *obs.Hist
	histPrograms *obs.Hist
	histDrift    *obs.Hist
	epRequests   *obs.CounterVec   // {endpoint, status}
	epRejected   *obs.CounterVec   // {endpoint}
	dsRows       *obs.CounterVec   // {dataset, endpoint, engine, verdict}
	latency      *obs.HistogramVec // {dataset, endpoint, engine}
}

// Server is the validation daemon: an http.Handler plus the lifecycle
// that runs it with backpressure and graceful drain.
type Server struct {
	cfg      Config
	registry *Registry
	gate     *gate
	mux      *http.ServeMux
	http     *http.Server
	metrics  serveMetrics
	drift    *driftMonitor
	access   *accessLogger
	flight   *flightRecorder
}

// New builds a Server from cfg. The handler is ready immediately (tests
// mount Handler() on httptest); Run adds the listener lifecycle.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry(cfg.Obs)
	}
	reg := cfg.Obs
	s := &Server{
		cfg:      cfg,
		registry: cfg.Registry,
		gate:     newGate(cfg.maxInflight()),
		mux:      http.NewServeMux(),
		metrics: serveMetrics{
			requests:     reg.Counter("serve.requests"),
			rows:         reg.Counter("serve.rows"),
			flagged:      reg.Counter("serve.flagged"),
			violations:   reg.Counter("serve.violations"),
			cellsChanged: reg.Counter("serve.cells_changed"),
			rejected:     reg.Counter("serve.rejected"),
			errors:       reg.Counter("serve.errors"),
			logDrops:     reg.Counter("serve.accesslog.drops"),
			inflight:     reg.Gauge("serve.inflight"),
			histCheck:    reg.Histogram("serve.request.check"),
			histRectify:  reg.Histogram("serve.request.rectify"),
			histPrograms: reg.Histogram("serve.request.programs"),
			histDrift:    reg.Histogram("serve.request.drift"),
			epRequests:   reg.CounterVec("serve.endpoint.requests", "endpoint", "status"),
			epRejected:   reg.CounterVec("serve.endpoint.rejected", "endpoint"),
			dsRows:       reg.CounterVec("serve.dataset.rows", "dataset", "endpoint", "engine", "verdict"),
			latency:      reg.HistogramVec("serve.request.latency", "dataset", "endpoint", "engine"),
		},
	}
	if cfg.Drift.Enabled {
		s.drift = newDriftMonitor(cfg.Drift, cfg.Obs, s.registry.Get)
	}
	s.access = newAccessLogger(cfg.AccessLog, s.metrics.logDrops)
	s.flight = newFlightRecorder(cfg.FlightSize)
	s.routes()
	s.http = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	return s
}

// Handler returns the daemon's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the program registry the server validates against.
func (s *Server) Registry() *Registry { return s.registry }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/flight", s.handleFlight)
	s.mux.Handle("POST /v1/check", s.gated("check", s.metrics.histCheck,
		func(w http.ResponseWriter, r *http.Request, rc *reqInfo) { s.handleValidate(w, r, rc, core.Ignore) }))
	s.mux.Handle("POST /v1/rectify", s.gated("rectify", s.metrics.histRectify,
		func(w http.ResponseWriter, r *http.Request, rc *reqInfo) { s.handleValidate(w, r, rc, core.Rectify) }))
	s.mux.Handle("GET /v1/drift", s.gated("drift", s.metrics.histDrift, s.handleDrift))
	s.mux.Handle("GET /v1/programs", s.gated("programs", s.metrics.histPrograms, s.handleProgramList))
	s.mux.Handle("GET /v1/programs/{name}", s.gated("programs", s.metrics.histPrograms, s.handleProgramGet))
	s.mux.Handle("PUT /v1/programs/{name}", s.gated("programs", s.metrics.histPrograms, s.handleProgramPut))
	s.mux.Handle("POST /v1/programs/{name}", s.gated("programs", s.metrics.histPrograms, s.handleProgramPut))
	s.mux.Handle("DELETE /v1/programs/{name}", s.gated("programs", s.metrics.histPrograms, s.handleProgramDelete))
}

// gated wraps a handler with the admission gate, per-request telemetry
// (exact latency histograms, labeled counters, access log, flight
// recorder), and — when tracing — a per-request span on the slot's lane.
//
// The admission slot doubles as the histogram shard ticket: at most one
// in-flight request holds a slot, so ObserveShard(slot) gives each
// concurrent request its own cache line with zero coordination, the same
// single-writer discipline the tracer's lanes use. Rejected requests
// (429) never hold a slot and are observed through the access log and
// labeled counters only — the latency histograms measure served work.
func (s *Server) gated(endpoint string, hist *obs.Hist, h func(http.ResponseWriter, *http.Request, *reqInfo)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rc := &reqInfo{endpoint: endpoint, id: requestID(r), method: r.Method, path: r.URL.Path}
		w.Header().Set(requestHeader, rc.id)
		sw := &statusWriter{ResponseWriter: w}
		slot, ok := s.gate.tryAcquire()
		rc.waitNS = int64(time.Since(t0))
		if !ok {
			s.metrics.rejected.Inc()
			s.metrics.epRejected.With(endpoint).Inc()
			sw.Header().Set("Retry-After", "1")
			writeJSONError(sw, http.StatusTooManyRequests, "server at max in-flight requests")
			s.finishRequest(rc, sw, t0)
			return
		}
		func() {
			defer s.gate.release(slot)
			s.metrics.inflight.Add(1)
			defer s.metrics.inflight.Add(-1)
			s.metrics.requests.Inc()

			sc := s.requestScope(slot)
			sp := sc.Start("serve."+endpoint).Str("method", r.Method).Str("path", r.URL.Path).Str("request", rc.id)
			defer sp.End()
			rc.Scope = sp.Scope()
			rc.slot = slot
			h(sw, r, rc)

			rc.latencyNS = int64(time.Since(t0))
			hist.ObserveShard(slot, rc.latencyNS)
			s.metrics.latency.With(rc.dataset, endpoint, rc.engine).ObserveShard(slot, rc.latencyNS)
		}()
		s.finishRequest(rc, sw, t0)
	})
}

// finishRequest turns a completed (or rejected) request into its
// telemetry records: the per-endpoint/status counter, the access-log
// line, and the flight-recorder entry.
func (s *Server) finishRequest(rc *reqInfo, sw *statusWriter, t0 time.Time) {
	if rc.latencyNS == 0 {
		rc.latencyNS = int64(time.Since(t0))
	}
	s.metrics.epRequests.With(rc.endpoint, strconv.Itoa(sw.Status())).Inc()
	if s.access == nil && s.flight == nil {
		return
	}
	rec := reqRecord{
		Time:        t0.UTC().Format(time.RFC3339Nano),
		ID:          rc.id,
		Method:      rc.method,
		Path:        rc.path,
		Endpoint:    rc.endpoint,
		Dataset:     rc.dataset,
		Fingerprint: rc.fingerprint,
		Engine:      rc.engine,
		Status:      sw.Status(),
		RowsIn:      rc.rowsIn,
		RowsFlagged: rc.rowsFlagged,
		Bytes:       sw.bytes,
		WaitNS:      rc.waitNS,
		LatencyNS:   rc.latencyNS,
		Error:       sw.errNote(),
	}
	s.access.log(rec)
	s.flight.record(rec)
}

// requestScope returns the trace scope for the request holding slot, or
// the zero (disabled) scope when untraced.
func (s *Server) requestScope(slot int) trace.Scope {
	tr := s.cfg.Tracer
	if tr == nil || slot+1 >= tr.NumLanes() {
		return trace.Scope{}
	}
	return tr.Root().OnLane(tr.Lane(slot + 1))
}

// Run serves on ln until ctx is cancelled, then drains: the listener
// closes, in-flight requests get up to DrainTimeout to finish, the drift
// monitor's workers finish the rows queued by then, and only then does
// Run return. A nil return means every admitted request
// completed — the clean-drain contract the CI serve-e2e job asserts. An
// exceeded drain deadline force-closes remaining connections and returns
// an error.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	defer s.drainDrift()
	if s.cfg.FlightDump != nil {
		// Flight-dump-on-SIGQUIT: the classic "what was the daemon just
		// doing" signal. The watcher lives exactly as long as Run — after
		// ctx cancels, signal delivery reverts to the default disposition.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		defer signal.Stop(quit)
		go func() { // nakedgo-exempt package: watcher spans Run's lifetime
			for {
				select {
				case <-quit:
					s.flight.writeTo(s.cfg.FlightDump)
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	errc := make(chan error, 1)
	go func() { errc <- s.http.Serve(ln) }() // nakedgo-exempt package: the goroutine spans the server's lifetime

	select {
	case err := <-errc:
		// The listener failed before shutdown was requested.
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.drainTimeout())
	defer cancel()
	if err := s.http.Shutdown(sctx); err != nil {
		_ = s.http.Close()
		<-errc
		return fmt.Errorf("serve: drain deadline exceeded: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}
