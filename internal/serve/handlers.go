package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sort"
	"strings"

	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/obs/debug"
)

// fingerprintHeader echoes the program version a response was computed
// with, so clients (and the hot-reload tests) can pin every verdict to
// exactly one registered version.
const fingerprintHeader = "X-Guardrail-Fingerprint"

// engineHeader reports which execution backend served the request.
const engineHeader = "X-Guardrail-Engine"

// errorTrailer carries the error that cut a CSV rectify response short;
// it is absent when every row was written.
const errorTrailer = "X-Guardrail-Error"

// apiViolation is the wire form of one constraint violation, decoded to
// schema names and string values.
type apiViolation struct {
	Stmt     int    `json:"stmt"`
	Attr     string `json:"attr"`
	Expected string `json:"expected"`
	Actual   string `json:"actual"`
}

// verdict is one row's NDJSON result line, written by appendVerdict. A
// rectify line also carries the repaired row as "values", an object keyed
// by attribute name; appendVerdict writes it from the row buffer.
type verdict struct {
	Row        int            `json:"row"`
	Flagged    bool           `json:"flagged"`
	Violations []apiViolation `json:"violations"`
	Changed    int            `json:"changed,omitempty"`
	Error      string         `json:"error,omitempty"`
}

// batchSummary is the final NDJSON line of a streaming response, written
// by appendSummary.
type batchSummary struct {
	Rows       int `json:"rows"`
	Flagged    int `json:"flagged"`
	Violations int `json:"violations"`
	Changed    int `json:"changed"`
}

// add tallies one row's verdict.
func (sum *batchSummary) add(v verdict) {
	sum.Rows++
	if v.Flagged {
		sum.Flagged++
	}
	sum.Violations += len(v.Violations)
	sum.Changed += v.Changed
}

// singleResponse is the /v1/check and /v1/rectify single-row JSON body.
type singleResponse struct {
	Dataset     string            `json:"dataset"`
	Fingerprint string            `json:"fingerprint"`
	Engine      string            `json:"engine"`
	Flagged     bool              `json:"flagged"`
	Violations  []apiViolation    `json:"violations"`
	Changed     int               `json:"changed,omitempty"`
	Row         map[string]string `json:"row,omitempty"`
}

func writeJSONError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the shared obs registry in Prometheus text
// format on the service port itself, so the daemon is scrapeable without
// a separate -debug-addr. Ungated: liveness probes and scrapes must keep
// working while validation traffic saturates the gate.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	debug.WriteMetrics(w, s.cfg.Obs.Snapshot())
}

// resolveEntry picks the program for a validation request: the ?dataset
// query parameter, or the sole registered program when unambiguous.
func (s *Server) resolveEntry(w http.ResponseWriter, r *http.Request) (*Entry, bool) {
	name := r.URL.Query().Get("dataset")
	if name == "" {
		names := s.registry.Names()
		if len(names) == 1 {
			name = names[0]
		} else {
			s.metrics.errors.Inc()
			writeJSONError(w, http.StatusBadRequest, "dataset parameter required (registered: %s)", strings.Join(names, ", "))
			return nil, false
		}
	}
	e, ok := s.registry.Get(name)
	if !ok {
		s.metrics.errors.Inc()
		writeJSONError(w, http.StatusNotFound, "no program registered for dataset %q", name)
		return nil, false
	}
	return e, true
}

// handleValidate is the shared core of /v1/check (strategy Ignore) and
// /v1/rectify (Rectify). The entry is resolved once and used for the whole
// request, so every row of a batch is validated by the same program
// version even if a hot reload lands mid-stream.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request, rc *reqInfo, strategy core.Strategy) {
	// Record the requested dataset before resolution, so a 404's log
	// entry still says what the client asked for.
	rc.dataset = r.URL.Query().Get("dataset")
	e, ok := s.resolveEntry(w, r)
	if !ok {
		return
	}
	rc.dataset, rc.fingerprint, rc.engine = e.Name, e.FingerprintHex(), e.Backend()
	w.Header().Set(fingerprintHeader, rc.fingerprint)
	w.Header().Set(engineHeader, rc.engine)
	rc.Scope.EventStr("serve.program", "fingerprint", rc.fingerprint)
	g := e.Guard(strategy)

	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt
	}
	switch ct {
	case "application/x-ndjson", "application/ndjson", "application/jsonlines":
		s.streamNDJSON(w, r, e, g, rc)
	case "text/csv":
		s.streamCSV(w, r, e, g, rc)
	default:
		s.singleJSON(w, r, e, g, rc)
	}
	if rc.drift != nil {
		rc.drift.kick()
	}
}

// singleJSON validates one row sent as a JSON object keyed by attribute
// name. The body is size-limited by Config.MaxBody.
func (s *Server) singleJSON(w http.ResponseWriter, r *http.Request, e *Entry, g *core.Guard, rc *reqInfo) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.maxBody())
	var row map[string]string
	if err := json.NewDecoder(body).Decode(&row); err != nil {
		s.metrics.errors.Inc()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSONError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return
		}
		writeJSONError(w, http.StatusBadRequest, "decoding row: %v", err)
		return
	}
	buf := newRowBuf(e.Schema)
	if err := buf.setFromMap(row); err != nil {
		s.metrics.errors.Inc()
		writeJSONError(w, http.StatusBadRequest, "%v", err)
		return
	}
	v := s.checkOne(e, g, buf, rc, 0)
	resp := singleResponse{
		Dataset:     e.Name,
		Fingerprint: e.FingerprintHex(),
		Engine:      e.Backend(),
		Flagged:     v.Flagged,
		Violations:  v.Violations,
		Changed:     v.Changed,
	}
	if g.Strategy() == core.Rectify {
		resp.Row = buf.decodeMap()
	}
	writeJSON(w, http.StatusOK, resp)
}

// countRow updates the per-request row tallies alongside the aggregate
// and dataset-labeled row counters. The labeled children are resolved
// once per request (a vec lookup allocates its joined key), keeping the
// per-row cost at plain atomic increments.
func (s *Server) countRow(rc *reqInfo, flagged bool) {
	if !rc.rowCounters {
		rc.rowCounters = true
		rc.rowsOKCounter = s.metrics.dsRows.With(rc.dataset, rc.endpoint, rc.engine, "ok")
		rc.rowsFlaggedCounter = s.metrics.dsRows.With(rc.dataset, rc.endpoint, rc.engine, "flagged")
	}
	rc.rowsIn++
	s.metrics.rows.Inc()
	if flagged {
		rc.rowsFlagged++
		s.metrics.flagged.Inc()
		rc.rowsFlaggedCounter.Inc()
	} else {
		rc.rowsOKCounter.Inc()
	}
}

// streamNDJSON validates a newline-delimited stream of JSON row objects,
// writing one verdict line per row and a final {"summary": ...} line.
// Rows are processed in constant memory as they arrive; the body is not
// size-limited.
func (s *Server) streamNDJSON(w http.ResponseWriter, r *http.Request, e *Entry, g *core.Guard, rc *reqInfo) {
	st := newBatchStream(w, r.Body)
	w.Header().Set("Content-Type", "application/x-ndjson")
	nd := &ndjsonReader{r: st}
	buf := newRowBuf(e.Schema)
	var vals *rowBuf
	var order []int
	if g.Strategy() == core.Rectify {
		vals, order = buf, sortedAttrs(e.Schema)
	}
	var sum batchSummary
	for i := 0; ; i++ {
		if err := nd.readRow(buf); err == io.EOF {
			break
		} else if err != nil {
			s.metrics.errors.Inc()
			st.writeVerdict(&verdict{Row: i, Error: err.Error()}, nil, nil)
			break
		}
		v := s.checkOne(e, g, buf, rc, i)
		sum.add(v)
		st.writeVerdict(&v, vals, order)
	}
	st.writeSummary(sum)
	st.drain()
}

// sortedAttrs lists the schema's attribute indices in name order, the
// key order of a JSON object.
func sortedAttrs(schema *dataset.Relation) []int {
	order := make([]int, schema.NumAttrs())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return schema.Attr(order[i]) < schema.Attr(order[j]) })
	return order
}

// streamCSV validates a CSV batch (header row first, columns in any
// order covering the schema). Check responses are NDJSON verdict lines
// like streamNDJSON; rectify responses are the repaired CSV — the
// streaming twin of `guardrail rectify -out`.
func (s *Server) streamCSV(w http.ResponseWriter, r *http.Request, e *Entry, g *core.Guard, rc *reqInfo) {
	rectify := g.Strategy() == core.Rectify
	st := newBatchStream(w, r.Body)
	buf := newRowBuf(e.Schema)
	// The scanner reads the body into 32 KiB or more of free buffer at a
	// time; each read first flushes the output for the rows before it.
	cr, err := dataset.NewReader(st)
	var colOf []int
	if err == nil {
		colOf, err = buf.enc.MapHeader(cr.Header())
	}
	if err != nil {
		s.metrics.errors.Inc()
		writeJSONError(w, http.StatusBadRequest, "%v", err)
		return
	}

	if rectify {
		// A malformed row is found after earlier rows went out under a
		// 200, so the CSV body reports it in a trailer.
		w.Header().Set("Trailer", errorTrailer)
		w.Header().Set("Content-Type", "text/csv")
		if err := st.startCSV(buf.enc, colOf, cr.Header()); err != nil {
			return
		}
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}

	var sum batchSummary
	for i := 0; ; i++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.metrics.errors.Inc()
			if rectify {
				// Send the header first: a declared trailer set before
				// the header is written would go out as a header too.
				st.flush()
				w.Header().Set(errorTrailer, err.Error())
			} else {
				st.writeVerdict(&verdict{Row: i, Error: err.Error()}, nil, nil)
			}
			break
		}
		buf.setFromRecord(colOf, rec)
		v := s.checkOne(e, g, buf, rc, i)
		sum.add(v)
		if rectify {
			if err := st.writeCSV(buf.codes); err != nil {
				return
			}
		} else {
			st.writeVerdict(&v, nil, nil)
		}
	}
	if !rectify {
		st.writeSummary(sum)
	}
	st.drain()
}

// checkOne runs the row in buf through the request's guard (Ignore for
// check, Rectify for rectify, which repairs buf in place), updating the
// serve.* row counters and the request's row tallies. The verdict's
// violations live in buf until its next row.
func (s *Server) checkOne(e *Entry, g *core.Guard, buf *rowBuf, rc *reqInfo, i int) verdict {
	s.observeDrift(e, buf, rc)
	vs, changed, _ := g.Step(buf.codes) // only Raise errors
	buf.viols = s.decodeViolations(e, vs, buf.enc, buf.viols[:0])
	v := verdict{Row: i, Flagged: len(vs) > 0, Violations: buf.viols, Changed: changed}
	s.countRow(rc, v.Flagged)
	s.metrics.cellsChanged.Add(int64(changed))
	return v
}

// decodeViolations appends vs to dst with schema attribute names and
// string values. Expected values are always program literals (interned);
// actual values decode through the request's encoder, so an unseen value
// comes back as the client sent it.
func (s *Server) decodeViolations(e *Entry, vs []dsl.Violation, enc *dataset.Encoder, dst []apiViolation) []apiViolation {
	for _, v := range vs {
		dst = append(dst, apiViolation{
			Stmt:     v.Stmt,
			Attr:     e.Schema.Attr(v.Attr),
			Expected: e.Schema.Dict(v.Attr).Value(v.Expected),
			Actual:   enc.Decode(v.Attr, v.Actual),
		})
	}
	s.metrics.violations.Add(int64(len(vs)))
	return dst
}

// programInfo is the wire form of one registry entry.
type programInfo struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Engine      string `json:"engine"`
	Statements  int    `json:"statements"`
	Attrs       int    `json:"attrs"`
	Version     int    `json:"version"`
	LoadedAt    string `json:"loaded_at"`
	CompileErr  string `json:"compile_error,omitempty"`
}

func infoOf(e *Entry) programInfo {
	info := programInfo{
		Name:        e.Name,
		Fingerprint: e.FingerprintHex(),
		Engine:      e.Backend(),
		Statements:  len(e.Program().Stmts),
		Attrs:       e.Schema.NumAttrs(),
		Version:     e.Version,
		LoadedAt:    e.LoadedAt.UTC().Format("2006-01-02T15:04:05.000Z"),
	}
	if err := e.Fallback(); err != nil {
		info.CompileErr = err.Error()
	}
	return info
}

func (s *Server) handleProgramList(w http.ResponseWriter, _ *http.Request, _ *reqInfo) {
	entries := s.registry.Entries()
	infos := make([]programInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, infoOf(e))
	}
	writeJSON(w, http.StatusOK, struct {
		Programs []programInfo `json:"programs"`
	}{infos})
}

func (s *Server) handleProgramGet(w http.ResponseWriter, r *http.Request, _ *reqInfo) {
	e, ok := s.registry.Get(r.PathValue("name"))
	if !ok {
		s.metrics.errors.Inc()
		writeJSONError(w, http.StatusNotFound, "no program registered for dataset %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		programInfo
		Program string   `json:"program"`
		Schema  []string `json:"schema"`
	}{infoOf(e), dsl.Format(e.Program(), e.Schema), e.Schema.Attrs()})
}

// handleProgramPut hot-reloads a program: the body carries the schema CSV
// and the program source, and the registry swap is atomic — requests
// admitted before the swap finish on the version they resolved.
func (s *Server) handleProgramPut(w http.ResponseWriter, r *http.Request, rc *reqInfo) {
	name := r.PathValue("name")
	rc.dataset = name
	body := http.MaxBytesReader(w, r.Body, s.cfg.maxBody())
	var req struct {
		SchemaCSV string `json:"schema_csv"`
		Program   string `json:"program"`
	}
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.metrics.errors.Inc()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSONError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return
		}
		writeJSONError(w, http.StatusBadRequest, "decoding program upload: %v", err)
		return
	}
	if req.SchemaCSV == "" || req.Program == "" {
		s.metrics.errors.Inc()
		writeJSONError(w, http.StatusBadRequest, "schema_csv and program are both required")
		return
	}
	e, changed, err := s.registry.Load(name, []byte(req.SchemaCSV), []byte(req.Program))
	if err != nil {
		s.metrics.errors.Inc()
		writeJSONError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	rc.fingerprint, rc.engine = e.FingerprintHex(), e.Backend()
	rc.Scope.EventStr("serve.reload", "fingerprint", e.FingerprintHex())
	w.Header().Set(fingerprintHeader, e.FingerprintHex())
	writeJSON(w, http.StatusOK, struct {
		programInfo
		Changed bool `json:"changed"`
	}{infoOf(e), changed})
}

func (s *Server) handleProgramDelete(w http.ResponseWriter, r *http.Request, rc *reqInfo) {
	name := r.PathValue("name")
	rc.dataset = name
	if !s.registry.Remove(name) {
		s.metrics.errors.Inc()
		writeJSONError(w, http.StatusNotFound, "no program registered for dataset %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": name})
}
