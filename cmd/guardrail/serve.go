package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/guardrail-db/guardrail/internal/obs/debug"
	"github.com/guardrail-db/guardrail/internal/serve"
)

// loadSpec names one program registration: -load name=schema.csv,prog.gr.
type loadSpec struct {
	name, csvPath, progPath string
}

// loadFlags collects repeated -load flags.
type loadFlags []loadSpec

func (l *loadFlags) String() string {
	parts := make([]string, len(*l))
	for i, s := range *l {
		parts[i] = fmt.Sprintf("%s=%s,%s", s.name, s.csvPath, s.progPath)
	}
	return strings.Join(parts, " ")
}

func (l *loadFlags) Set(v string) error {
	name, paths, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=schema.csv,program.gr, got %q", v)
	}
	csvPath, progPath, ok := strings.Cut(paths, ",")
	if !ok || name == "" || csvPath == "" || progPath == "" {
		return fmt.Errorf("want name=schema.csv,program.gr, got %q", v)
	}
	*l = append(*l, loadSpec{name: name, csvPath: csvPath, progPath: progPath})
	return nil
}

// cmdServe runs the long-running validation daemon: rows in over HTTP,
// verdicts (or repaired rows) out, against a hot-reloadable program
// registry. SIGTERM/SIGINT stop accepting and drain in-flight requests
// with a deadline; a clean drain exits 0. SIGQUIT dumps the flight
// recorder to stderr without stopping.
func cmdServe(args []string) (err error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8080", "HTTP listen address")
	var loads loadFlags
	fs.Var(&loads, "load", "register a program: name=schema.csv,program.gr (repeatable)")
	maxInflight := fs.Int("max-inflight", 64, "max concurrently-admitted validation requests; excess gets 429")
	maxBody := fs.Int64("max-body", 1<<20, "max single-row / program-upload body size in bytes")
	drain := fs.Duration("drain-timeout", 10*time.Second, "how long to wait for in-flight requests on shutdown")
	drift := fs.Bool("drift", false, "feed validated rows to the drift monitor (status on GET /v1/drift)")
	driftWindow := fs.Int("drift-window", 256, "rows per drift window")
	driftWindows := fs.Int("drift-windows", 8, "sliding ring capacity in windows")
	driftAlpha := fs.Float64("drift-alpha", 1e-3, "per-variable drift p-value threshold")
	accessLog := fs.String("access-log", "", "write one NDJSON record per request to this file (- for stderr)")
	flightSize := fs.Int("flight", 256, "flight recorder capacity in requests (0 disables); dump via GET /debug/flight or SIGQUIT")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(loads) == 0 {
		return fmt.Errorf("serve: at least one -load name=schema.csv,program.gr is required")
	}

	var accessW io.Writer
	switch *accessLog {
	case "":
	case "-":
		accessW = os.Stderr
	default:
		f, ferr := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			return fmt.Errorf("serve: open access log: %w", ferr)
		}
		// Named return: a close failure (full disk, NFS) must surface as
		// a non-zero exit, not vanish into a deferred discard.
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("serve: close access log: %w", cerr)
			}
		}()
		accessW = f
	}
	// The CLI convention: 0 disables, unset means the library default
	// ring; the library itself uses -1 to disable.
	if *flightSize == 0 {
		*flightSize = -1
	}

	reg, tr, finish, err := of.start("serve", *maxInflight)
	if err != nil {
		return err
	}
	registry := serve.NewRegistry(reg)
	for _, l := range loads {
		e, _, err := registry.LoadFiles(l.name, l.csvPath, l.progPath)
		if err != nil {
			return err
		}
		engine := e.Backend()
		if err := e.Fallback(); err != nil {
			engine += " (compiled unavailable: " + err.Error() + ")"
		}
		fmt.Fprintf(os.Stderr, "loaded program %q: %d statements, fingerprint %s, engine %s\n",
			e.Name, len(e.Program().Stmts), e.FingerprintHex(), engine)
	}

	srv := serve.New(serve.Config{
		Registry:     registry,
		MaxInflight:  *maxInflight,
		MaxBody:      *maxBody,
		DrainTimeout: *drain,
		Obs:          reg,
		Tracer:       tr,
		AccessLog:    accessW,
		FlightSize:   *flightSize,
		FlightDump:   os.Stderr,
		Drift: serve.DriftConfig{
			Enabled:    *drift,
			WindowRows: *driftWindow,
			MaxWindows: *driftWindows,
			Alpha:      *driftAlpha,
		},
	})
	// The daemon serves /debug/flight itself; mirroring it onto the
	// -debug-addr sidecar server lets operators pull dumps without
	// touching the serving port.
	debug.Handle("/debug/flight", srv.FlightHandler())
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", *addr, err)
	}
	fmt.Fprintf(os.Stderr, "guardrail serve listening on http://%s (endpoints: /v1/check /v1/rectify /v1/programs /v1/drift /metrics /healthz /debug/flight)\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Run(ctx, ln); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "guardrail serve: drained cleanly")
	return finish()
}
