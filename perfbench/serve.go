package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/analysis"
	"github.com/guardrail-db/guardrail/internal/dsl/compile"
	"github.com/guardrail-db/guardrail/internal/errgen"
	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/serve"
	"github.com/guardrail-db/guardrail/internal/synth"
)

const (
	serveDataset  = "postal"
	uploadDataset = "postal-b"
	// latencyLimit is the single-row p99 a ladder step must meet. Batches,
	// uploads and inline re-synthesis share the two cores with the checks,
	// which puts the p99 at a few milliseconds even at the base rate.
	latencyLimit  = 10 * time.Millisecond
	poolRows      = 20_000
	csvBodyRows   = 2_000
	ndjsonRows    = 500
	bodiesPerKind = 8
	// batchPeriod spaces the second sender's batch requests and uploads;
	// every uploadEvery-th slot is an upload.
	batchPeriod = 125 * time.Millisecond
	uploadEvery = 8
	// rigSetups is how many times set-up starts the daemon; one start takes
	// well under a second, so more repeats steady the setup_s median.
	rigSetups = 5
	// shiftCodes is the postal-code range the shifted stream draws from.
	shiftCodes = 64
	// uploadCodes and uploadRows size the second dataset, whose program
	// versions the uploads alternate.
	uploadCodes = 64
	uploadRows  = 2_000
)

// ladder is the single-row check rate of each step, base rate first.
var ladder = []float64{2000, 3000, 4000, 5000, 6000}

// stepShare is each step's share of the measured time. The end-to-end
// metrics come from the base step, so it gets most of the run.
var stepShare = []float64{0.6, 0.1, 0.1, 0.1, 0.1}

var batchKinds = []string{"csv-check", "csv-rectify", "ndjson-check", "ndjson-rectify"}

// pool is a stream of rows; the second pool is the shifted distribution.
type pool struct {
	rows   [][]string // schema attribute order
	single [][]byte   // one /v1/check JSON body per row
	gold   []bool     // errgen's dirty-row mask
	want   []bool     // the CLI guard's verdict per row
	bodies map[string][]*body
}

// body is one request of the second sender, a batch or an upload, with
// its expected outcome.
type body struct {
	kind                      string // a batchKinds entry or "upload"
	method, path, contentType string
	data                      []byte
	lo, rows                  int // the pool rows a batch carries
	flagged                   int
	rectify                   []byte // expected /v1/rectify CSV response
}

// schedule is one run's requests, all fixed before the timed phase:
// single-row checks by due time with their ladder step, and the second
// sender's batch and upload slots.
type schedule struct {
	due      []time.Duration
	stepOf   []int
	baseEnd  time.Duration // end of the base step
	shiftAt  time.Duration // the row stream switches pools here
	batchDue []time.Duration
	batch    []*body
	pools    [2]*pool
}

func newSchedule(seed int64, mixed time.Duration, in *serveInputs, r *rig) (*schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	sc := &schedule{pools: in.pools}
	at := time.Duration(0)
	for k, rate := range ladder {
		span := time.Duration(stepShare[k] * float64(mixed))
		for _, d := range poissonSchedule(rng, rate, at, span) {
			sc.due = append(sc.due, d)
			sc.stepOf = append(sc.stepOf, k)
		}
		at += span
		if k == 0 {
			sc.baseEnd = at
		}
	}
	sc.shiftAt = sc.baseEnd / 2

	var uploads [2]*body
	for k, text := range []string{r.upA, r.upB} {
		data, err := json.Marshal(map[string]string{"schema_csv": string(in.uploadCSV), "program": text})
		if err != nil {
			return nil, err
		}
		uploads[k] = &body{kind: "upload", method: http.MethodPut, path: "/v1/programs/" + uploadDataset,
			contentType: "application/json", data: data}
	}
	order := rng.Perm(bodiesPerKind)
	for j, d := 0, batchPeriod/2; d < at; j, d = j+1, d+batchPeriod {
		sc.batchDue = append(sc.batchDue, d)
		if j%uploadEvery == uploadEvery-1 {
			sc.batch = append(sc.batch, uploads[(j/uploadEvery)%2])
			continue
		}
		kind := batchKinds[j%len(batchKinds)]
		sc.batch = append(sc.batch, sc.poolAt(d).bodies[kind][order[(j/len(batchKinds))%bodiesPerKind]])
	}
	return sc, nil
}

// poolAt is the row pool a request due at d draws from.
func (sc *schedule) poolAt(d time.Duration) *pool {
	if d < sc.shiftAt {
		return sc.pools[0]
	}
	return sc.pools[1]
}

type serveInputs struct {
	trainCSV  []byte
	uploadCSV []byte // the second dataset's training sample and schema
	attrs     []string
	pools     [2]*pool
}

func makeServeInputs(seed int64) (*serveInputs, error) {
	network := bn.PostalChain(postalCodes)
	train, err := network.Sample(trainRows, seed+7919)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{attrs: train.Attrs()}
	var b bytes.Buffer
	if err := train.ToCSV(&b); err != nil {
		return nil, err
	}
	in.trainCSV = append([]byte(nil), b.Bytes()...)
	up, err := bn.PostalChain(uploadCodes).Sample(uploadRows, seed+3)
	if err != nil {
		return nil, err
	}
	b.Reset()
	if err := up.ToCSV(&b); err != nil {
		return nil, err
	}
	in.uploadCSV = b.Bytes()

	base, err := network.Sample(poolRows, seed+1)
	if err != nil {
		return nil, err
	}
	wide, err := network.Sample(poolRows*postalCodes/shiftCodes*2, seed+2)
	if err != nil {
		return nil, err
	}
	shifted := wide.Filter(func(row int) bool {
		code, err := strconv.Atoi(strings.TrimPrefix(wide.Value(row, 0), "PostalCode_v"))
		return err == nil && code < shiftCodes
	})
	if shifted.NumRows() < poolRows {
		return nil, fmt.Errorf("shifted sample has %d rows, want %d", shifted.NumRows(), poolRows)
	}
	keep := make([]int, poolRows)
	for i := range keep {
		keep[i] = i
	}
	shifted = shifted.SelectRows(keep)
	for k, rel := range []*dataset.Relation{base, shifted} {
		mask, err := errgen.Inject(rel, errgen.Options{Rate: 0.01, RandomStringProb: 0.3, Seed: seed + int64(k)})
		if err != nil {
			return nil, err
		}
		p := &pool{gold: mask.RowDirty, bodies: map[string][]*body{}}
		for i := 0; i < rel.NumRows(); i++ {
			vals := rel.RowStrings(i)
			p.rows = append(p.rows, vals)
			obj := map[string]string{}
			for a, v := range vals {
				obj[in.attrs[a]] = v
			}
			data, err := json.Marshal(obj)
			if err != nil {
				return nil, err
			}
			p.single = append(p.single, data)
		}
		in.pools[k] = p
	}
	return in, nil
}

// expect fills every pool's verdicts and batch bodies for program text,
// using the CLI's guard over relations parsed from the schema CSV.
func (in *serveInputs) expect(text string) error {
	ref, err := dataset.FromCSV(bytes.NewReader(in.trainCSV), "ref")
	if err != nil {
		return err
	}
	prog, err := dsl.Parse(text, ref)
	if err != nil {
		return err
	}
	guard := core.NewGuard(prog, core.Ignore)
	codes := make([]int32, len(in.attrs))
	for _, p := range in.pools {
		p.want = make([]bool, len(p.rows))
		for i, vals := range p.rows {
			for a, v := range vals {
				codes[a] = ref.Intern(a, v)
			}
			vs, err := guard.CheckRow(codes)
			if err != nil {
				return err
			}
			p.want[i] = len(vs) > 0
		}
		for b := 0; b < bodiesPerKind; b++ {
			lo := b * csvBodyRows % poolRows
			csvBody := in.csvBody(p.rows[lo : lo+csvBodyRows])
			rect, err := in.streamRectify(text, csvBody)
			if err != nil {
				return err
			}
			flagged := count(p.want[lo : lo+csvBodyRows])
			check := batchBody("csv-check", csvBody, lo, csvBodyRows, flagged)
			fix := batchBody("csv-rectify", csvBody, lo, csvBodyRows, flagged)
			fix.rectify = rect
			p.bodies["csv-check"] = append(p.bodies["csv-check"], check)
			p.bodies["csv-rectify"] = append(p.bodies["csv-rectify"], fix)
			lo = (poolRows/2 + b*ndjsonRows) % poolRows
			nd := bytes.Join(p.single[lo:lo+ndjsonRows], []byte{'\n'})
			flagged = count(p.want[lo : lo+ndjsonRows])
			for _, kind := range []string{"ndjson-check", "ndjson-rectify"} {
				p.bodies[kind] = append(p.bodies[kind], batchBody(kind, nd, lo, ndjsonRows, flagged))
			}
		}
	}
	return nil
}

// batchBody builds a batch request of kind over pool rows [lo, lo+rows).
func batchBody(kind string, data []byte, lo, rows, flagged int) *body {
	b := &body{kind: kind, method: http.MethodPost, path: "/v1/check?dataset=" + serveDataset,
		contentType: "text/csv", data: data, lo: lo, rows: rows, flagged: flagged}
	if strings.HasSuffix(kind, "rectify") {
		b.path = "/v1/rectify?dataset=" + serveDataset
	}
	if strings.HasPrefix(kind, "ndjson") {
		b.contentType = "application/x-ndjson"
	}
	return b
}

func (in *serveInputs) csvBody(rows [][]string) []byte {
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	_ = w.Write(in.attrs)
	_ = w.WriteAll(rows) // WriteAll flushes; bytes.Buffer writes cannot fail
	return b.Bytes()
}

// streamRectify is the CLI-side answer to a CSV rectify request:
// StreamCSV over a schema freshly loaded from the schema CSV.
func (in *serveInputs) streamRectify(text string, csvBody []byte) ([]byte, error) {
	schema, err := dataset.FromCSV(bytes.NewReader(in.trainCSV), "schema")
	if err != nil {
		return nil, err
	}
	prog, err := dsl.Parse(text, schema)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	_, err = core.NewGuard(prog, core.Rectify).StreamCSV(bytes.NewReader(csvBody), &out, schema)
	return out.Bytes(), err
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// rig is one running server and its programs.
type rig struct {
	srv       *serve.Server
	url       string
	text      string // the served program
	upA, upB  string // the two upload versions
	cancel    context.CancelFunc
	done      chan error
	accessLog *accessLog
}

// startRig synthesizes the programs of both datasets, loads them, and
// starts the daemon on a loopback listener.
func startRig(in *serveInputs, seed int64, traced bool) (*rig, error) {
	r := &rig{}
	var err error
	if r.text, err = synthesizeText(in.trainCSV, seed); err != nil {
		return nil, err
	}
	if r.upA, err = synthesizeText(in.uploadCSV, seed); err != nil {
		return nil, err
	}
	if r.upB, err = variant(r.upA, in.uploadCSV); err != nil {
		return nil, err
	}
	reg := obs.New()
	registry := serve.NewRegistry(reg)
	if _, _, err := registry.Load(serveDataset, in.trainCSV, []byte(r.text)); err != nil {
		return nil, err
	}
	if _, _, err := registry.Load(uploadDataset, in.uploadCSV, []byte(r.upB)); err != nil {
		return nil, err
	}
	r.accessLog = &accessLog{}
	r.srv = serve.New(serve.Config{Registry: registry, Obs: reg, AccessLog: r.accessLog, Drift: serve.DriftConfig{Enabled: true}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.url = "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel, r.done = cancel, make(chan error, 1)
	go func() { r.done <- r.srv.Run(ctx, ln) }()
	return r, nil
}

// stop drains the daemon and waits for Run to return.
func (r *rig) stop() error {
	r.cancel()
	return <-r.done
}

// synthesizeText is `guardrail synth`: load the CSV, synthesize, format.
func synthesizeText(data []byte, seed int64) (string, error) {
	rel, err := dataset.FromCSV(bytes.NewReader(data), "train")
	if err != nil {
		return "", err
	}
	res, err := core.Synthesize(rel, synthOptions(seed, workers))
	if err != nil {
		return "", err
	}
	return dsl.Format(res.Program, rel), nil
}

// variant drops the program's last branch (or, for a one-branch last
// statement, the statement): a second, semantically different version to
// upload.
func variant(text string, schemaCSV []byte) (string, error) {
	rel, err := dataset.FromCSV(bytes.NewReader(schemaCSV), "schema")
	if err != nil {
		return "", err
	}
	prog, err := dsl.Parse(text, rel)
	if err != nil {
		return "", err
	}
	if len(prog.Stmts) == 0 {
		return "", errors.New("synthesized program is empty")
	}
	last := &prog.Stmts[len(prog.Stmts)-1]
	if len(last.Branches) > 1 {
		last.Branches = last.Branches[:len(last.Branches)-1]
	} else {
		prog.Stmts = prog.Stmts[:len(prog.Stmts)-1]
	}
	return dsl.Format(prog, rel), nil
}

// accessLog keeps the daemon's access-log lines; they are decoded after
// the run, off the request path. Lines written once discard is set are
// dropped, so the quiet phase, whose request count follows the machine's
// speed, does not make the run's peak memory follow it too.
type accessLog struct {
	mu      sync.Mutex
	lines   [][]byte
	discard atomic.Bool
}

func (l *accessLog) Write(p []byte) (int, error) {
	if l.discard.Load() {
		return len(p), nil
	}
	line := append([]byte(nil), p...)
	l.mu.Lock()
	l.lines = append(l.lines, line)
	l.mu.Unlock()
	return len(p), nil
}

// timing is one request's admission wait and in-daemon latency.
type timing struct{ waitNS, latencyNS int64 }

// timings decodes the log by request ID.
func (l *accessLog) timings() (map[string]timing, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]timing, len(l.lines))
	for _, line := range l.lines {
		var rec struct {
			ID        string `json:"id"`
			WaitNS    int64  `json:"wait_ns"`
			LatencyNS int64  `json:"latency_ns"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		out[rec.ID] = timing{rec.WaitNS, rec.LatencyNS}
	}
	return out, nil
}

// errRejected marks a 429 from the admission gate.
var errRejected = errors.New("rejected with 429")

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// post sends one request and returns the response body; any status but
// 200 is an error.
func post(c *http.Client, method, url, contentType, id string, data []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("X-Guardrail-Request", id)
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	return readBody(resp, method+" "+url)
}

// readBody reads and closes a response body; any status but 200 is an
// error.
func readBody(resp *http.Response, what string) ([]byte, error) {
	out, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return out, nil
	case http.StatusTooManyRequests:
		return nil, errRejected
	default:
		return nil, fmt.Errorf("%s: status %d: %s", what, resp.StatusCode, bytes.TrimSpace(out))
	}
}

// rawConn is one HTTP/1.1 keep-alive connection driven from the calling
// goroutine: it writes a request, then reads the response, with no
// transport goroutines between the sender and the socket. Request bodies
// must be small enough that the response cannot fill the socket buffers
// before the request is fully written, as single-row bodies are.
type rawConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func (rc *rawConn) post(path, contentType, id string, data []byte) ([]byte, error) {
	if rc.c == nil {
		c, err := net.Dial("tcp", rc.addr)
		if err != nil {
			return nil, err
		}
		rc.c, rc.br, rc.bw = c, bufio.NewReader(c), bufio.NewWriter(c)
	}
	fmt.Fprintf(rc.bw, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nX-Guardrail-Request: %s\r\n\r\n",
		path, rc.addr, contentType, len(data), id)
	_, _ = rc.bw.Write(data) // a write error surfaces from Flush
	if err := rc.bw.Flush(); err != nil {
		rc.close()
		return nil, err
	}
	resp, err := http.ReadResponse(rc.br, nil)
	if err != nil {
		rc.close()
		return nil, err
	}
	out, err := readBody(resp, "POST "+path)
	if resp.Close {
		rc.close()
	}
	return out, err
}

func (rc *rawConn) close() {
	if rc.c != nil {
		_ = rc.c.Close() // the connection is being abandoned
		rc.c = nil
	}
}

// checkVerdicts validates an NDJSON verdict stream: one line per row in
// order, then a summary whose counts match the lines and the expectation.
func checkVerdicts(out []byte, b *body) error {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lines, flagged := 0, 0
	for sc.Scan() {
		var v struct {
			Row     *int   `json:"row"`
			Flagged bool   `json:"flagged"`
			Error   string `json:"error"`
			Summary *struct {
				Rows    int `json:"rows"`
				Flagged int `json:"flagged"`
			} `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			return err
		}
		if v.Summary != nil {
			if lines != b.rows || v.Summary.Rows != b.rows || v.Summary.Flagged != flagged || flagged != b.flagged {
				return fmt.Errorf("%s: %d verdict lines, summary %d rows %d flagged; lines flagged %d, want %d rows %d flagged",
					b.kind, lines, v.Summary.Rows, v.Summary.Flagged, flagged, b.rows, b.flagged)
			}
			return nil
		}
		if v.Row == nil || *v.Row != lines || v.Error != "" {
			return fmt.Errorf("%s: verdict line %d malformed: %s", b.kind, lines, sc.Text())
		}
		lines++
		if v.Flagged {
			flagged++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("%s: verdict stream has no summary line", b.kind)
}

// verifySingle checks a /v1/check verdict against the CLI guard's.
func verifySingle(out []byte, want bool) (flagged bool, err error) {
	var v struct {
		Flagged bool `json:"flagged"`
	}
	if err := json.Unmarshal(out, &v); err != nil {
		return false, err
	}
	if v.Flagged != want {
		return v.Flagged, fmt.Errorf("check: flagged=%v, the CLI guard says %v", v.Flagged, want)
	}
	return v.Flagged, nil
}

// verifyBatch checks one batch response: an upload must report a change,
// a CSV rectify must equal StreamCSV's output, and a verdict stream must
// match its rows.
func verifyBatch(b *body, out []byte) error {
	switch b.kind {
	case "upload":
		var v struct {
			Changed bool `json:"changed"`
		}
		if err := json.Unmarshal(out, &v); err != nil {
			return err
		}
		if !v.Changed {
			return errors.New("upload: registry reports no change")
		}
		return nil
	case "csv-rectify":
		if !bytes.Equal(out, b.rectify) {
			return errors.New("csv-rectify: response differs from StreamCSV on the same rows")
		}
		return nil
	}
	return checkVerdicts(out, b)
}

// stepResult is one ladder step's single-row outcome.
type stepResult struct {
	rate                 float64
	sent, ok, failed     int
	p50, tail, tailLevel float64 // ms, from due time
	lateP99              float64 // ms
}

// runServeMixed drives the daemon for the first half of the timed phase
// with an open-loop ladder of single-row checks while a second sender
// interleaves batch requests and program uploads, over a row stream whose
// distribution shifts during the base step so the drift monitor
// re-synthesizes inline. The second half is the quiet phase (quietPhase),
// which gives the end-to-end latency and throughput. Each set-up is scaled
// to the reference speed by the probe timed right after it, and each quiet
// round by the probes timed right before it, while the daemon is idle.
func runServeMixed(cfg config, rep *report) error {
	in, err := makeServeInputs(cfg.seed)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	var r *rig
	var setups, setupsRef []float64
	var sp speed
	for k := 0; k < rigSetups; k++ {
		if r != nil {
			if err := r.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if r, err = startRig(in, cfg.seed, cfg.trace); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		setups = append(setups, d)
		setupsRef = append(setupsRef, d*toReference(sp.probe()))
	}
	rep.e2e["setup_s"] = median(setupsRef)
	rep.layer["raw.setup_s"] = median(setups)
	err = driveServe(cfg, in, r, rep, &sp)
	rep.op(r.stop())
	rep.layer["machine.probe_ms"] = median(sp.probes)
	return err
}

// driveServe runs the timed phase against a started rig and, in a traced
// run, the in-process layer measurements.
func driveServe(cfg config, in *serveInputs, r *rig, rep *report, sp *speed) error {
	if err := in.expect(r.text); err != nil {
		return fmt.Errorf("expected outputs: %w", err)
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	sc, err := newSchedule(cfg.seed, cfg.seconds/2, in, r)
	if err != nil {
		return err
	}
	due, stepOf, poolAt := sc.due, sc.stepOf, sc.poolAt
	singles := &rawConn{addr: strings.TrimPrefix(r.url, "http://")}
	batches := newClient()
	defer singles.close()
	defer batches.CloseIdleConnections()
	singleOut := make([][]byte, len(due))
	var wg sync.WaitGroup
	var singleS, batchS []sample
	origin := time.Now().Add(20 * time.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		singleS = openLoop(realClock{}, origin, due, func(i int) error {
			tr := rec
			if i%2 == 0 {
				tr = nil // a traced run records spans on every other check
			}
			sp := tr.start("client.check", 0, int64(i))
			var err error
			singleOut[i], err = singles.post("/v1/check?dataset="+serveDataset, "application/json",
				"s"+strconv.Itoa(i), poolAt(due[i]).single[i%poolRows])
			tr.end(sp)
			return err
		})
	}()
	batchOut := make([][]byte, len(sc.batch))
	batchS = openLoop(realClock{}, origin, sc.batchDue, func(j int) error {
		b := sc.batch[j]
		var err error
		batchOut[j], err = post(batches, b.method, r.url+b.path, b.contentType, "b"+strconv.Itoa(j), b.data)
		return err
	})
	wg.Wait()
	r.accessLog.discard.Store(true)
	quiet, err := quietPhase(origin.Add(cfg.seconds), sc.pools[1], singles, batches, r.url, rep, sp)
	if err != nil {
		return err
	}
	// Responses are verified after the run, off the senders' clocks.
	flags := make([]bool, len(due))
	for i := range singleS {
		if singleS[i].err == nil {
			p, row := poolAt(due[i]), i%poolRows
			flags[i], singleS[i].err = verifySingle(singleOut[i], p.want[row])
		}
	}
	for j := range batchS {
		if batchS[j].err == nil {
			batchS[j].err = verifyBatch(sc.batch[j], batchOut[j])
		}
	}

	// Per-step single-row results.
	steps := make([]stepResult, len(ladder))
	lats := make([][]float64, len(ladder))
	lates := make([][]float64, len(ladder))
	var mixedRTT []float64 // round trips of the base step's checks
	var pred, gold []bool
	rejected, errs := 0, 0
	for i, s := range singleS {
		k := stepOf[i]
		steps[k].sent++
		rep.op(s.err)
		lates[k] = append(lates[k], ms(s.lateness()))
		if s.err != nil {
			steps[k].failed++
			if errors.Is(s.err, errRejected) {
				rejected++
			} else {
				errs++
			}
			continue
		}
		steps[k].ok++
		lats[k] = append(lats[k], ms(s.latency()))
		if k == 0 {
			mixedRTT = append(mixedRTT, ms(s.roundTrip()))
		}
		pred, gold = append(pred, flags[i]), append(gold, poolAt(due[i]).gold[i%poolRows])
	}
	maxRPS := 0.0
	fmt.Fprintf(os.Stderr, "serve-mixed ladder (latency from due time; limit p99 %v):\n", latencyLimit)
	for k := range steps {
		st := &steps[k]
		st.rate = ladder[k]
		st.p50 = median(lats[k])
		if lvl, v, ok := tailPercentile(lats[k]); ok {
			st.tailLevel, st.tail = lvl, v
		} else {
			st.tailLevel, st.tail = 1, quantile(lats[k], 1)
		}
		st.lateP99 = quantile(lates[k], 0.99)
		p99 := quantile(lats[k], 0.99)
		if st.failed == 0 && p99 <= ms(latencyLimit) && st.lateP99 <= ms(latencyLimit) {
			maxRPS = st.rate
		}
		fmt.Fprintf(os.Stderr, "  %6.0f rps: sent %5d ok %5d failed %3d  p50 %.3fms p%g %.3fms  lateness p50 %.3fms p99 %.3fms\n",
			st.rate, st.sent, st.ok, st.failed, st.p50, 100*st.tailLevel, st.tail, median(lates[k]), st.lateP99)
	}

	// Batch and upload results.
	var batchRowsOK int
	busy := map[string][]float64{}
	kindN := map[string]int{}
	var uploadLat []float64
	for j, s := range batchS {
		rep.op(s.err)
		if s.err != nil {
			if errors.Is(s.err, errRejected) {
				rejected++
			} else {
				errs++
			}
			continue
		}
		b := sc.batch[j]
		if b.kind == "upload" {
			uploadLat = append(uploadLat, ms(s.latency()))
			continue
		}
		batchRowsOK += b.rows
		busy[b.kind] = append(busy[b.kind], (s.end - s.start).Seconds())
		kindN[b.kind]++
	}

	drift, err := driftStatus(batches, r.url)
	rep.op(err)
	// The shifted stream must make the monitor re-synthesize inline, and
	// every window's synthesis must succeed: a monitor doing less work
	// would otherwise read as a speed-up.
	rep.check(err == nil && drift.Resyntheses >= 1 && drift.LastError == "",
		"drift monitor: %d windows, %d re-syntheses, last error %q; want at least one re-synthesis and no error",
		drift.Windows, drift.Resyntheses, drift.LastError)

	// The daemon's own latency for the base step's checks, from its access
	// log: the gated handler region only, without net/http's request
	// parsing and response writing or the access-log and flight-recorder
	// work after the handler.
	tm, err := r.accessLog.timings()
	if err != nil {
		return err
	}
	var served, waits []float64
	for i, s := range singleS {
		if t, ok := tm["s"+strconv.Itoa(i)]; ok && sc.stepOf[i] == 0 && s.err == nil {
			served = append(served, float64(t.latencyNS)/1e6)
			waits = append(waits, float64(t.waitNS)/1e6)
		}
	}
	rep.check(len(served) == steps[0].ok, "access log has %d of the base step's %d checks", len(served), steps[0].ok)
	base := steps[0]
	rep.e2e["latency_ms"], rep.e2e["rows_per_s"] = quietFigures(quiet)
	// The raw figures pool every quiet request.
	var rtt []float64
	var qRows int
	var qBusy time.Duration
	for _, q := range quiet {
		rtt = append(rtt, q.rtt...)
		qRows += q.batchRows
		qBusy += q.batch
	}
	rep.layer["raw.latency_ms"] = median(rtt)
	var echoes []float64
	for _, q := range quiet {
		echoes = append(echoes, q.echo)
	}
	rep.layer["machine.echo_ms"] = median(echoes)
	rep.layer["raw.rows_per_s"] = float64(qRows) / qBusy.Seconds()
	rep.layer["serve.mixed_rtt_p50_ms"] = median(mixedRTT)
	rep.layer["serve.daemon_p50_ms"] = median(served)
	rep.layer["serve.wait_p99_ms"] = quantile(waits, 0.99)
	// Batch rows over busy time under the mixed load, each request's
	// service time taken as the median of its kind's.
	var busyS float64
	for kind, n := range kindN {
		busyS += float64(n) * median(busy[kind])
	}
	rep.e2e["quality"] = confusionOf(pred, gold).f1()
	rep.layer["serve_check_p50_ms"] = base.p50
	rep.layer["serve_check_p99_ms"] = base.tail
	rep.layer["serve_batch_rows_per_s"] = float64(batchRowsOK) / busyS
	rep.layer["serve_upload_ms"] = median(uploadLat)
	rep.layer["serve_max_rps"] = maxRPS
	rep.layer["serve.rejected"] = float64(rejected)
	rep.layer["serve.errors"] = float64(errs)
	rep.layer["gen.lateness_p99_ms"] = base.lateP99
	rep.layer["drift.windows"] = float64(drift.Windows)
	rep.layer["drift.resyntheses"] = float64(drift.Resyntheses)

	if rec != nil {
		if err := serveLayers(in, r, sc, singleS, rep); err != nil {
			return err
		}
		dumpSpans(rec, "serve-mixed", cfg.seed)
	}
	fmt.Fprintf(os.Stderr, "serve-mixed: %d checks, %d batch requests (%d rows), %d uploads; drift windows %d, resyntheses %d; rejected %d, errors %d\n",
		len(singleS), len(batchS)-len(uploadLat), batchRowsOK, len(uploadLat), drift.Windows, drift.Resyntheses, rejected, errs)
	return nil
}

// driftState is the served dataset's monitor status from GET /v1/drift.
type driftState struct {
	Windows     int    `json:"windows"`
	Resyntheses int    `json:"resyntheses"`
	LastError   string `json:"last_error"`
}

func driftStatus(c *http.Client, url string) (driftState, error) {
	resp, err := c.Get(url + "/v1/drift")
	if err != nil {
		return driftState{}, err
	}
	defer resp.Body.Close()
	var body struct {
		Datasets []struct {
			Dataset string `json:"dataset"`
			driftState
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return driftState{}, err
	}
	for _, d := range body.Datasets {
		if d.Dataset == serveDataset {
			return d.driftState, nil
		}
	}
	return driftState{}, fmt.Errorf("/v1/drift has no %s monitor", serveDataset)
}

// serveLayers measures the serving layers in-process, after the ladder,
// on the same bodies and row sequence: the handler without the network,
// Entry.Detect, each batch form, Registry.Load and its parts, and the
// incremental synthesizer outside the server.
func serveLayers(in *serveInputs, r *rig, sc *schedule, singleS []sample, rep *report) error {
	h := r.srv.Handler()
	p := in.pools[0]

	// Handler time for the single-row bodies; net = client round-trip p50 -
	// handler p50.
	var handler []float64
	for i := 0; i < 2000; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/check?dataset="+serveDataset, bytes.NewReader(p.single[i]))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, req)
		handler = append(handler, ms(time.Since(t0)))
		rep.check(w.Code == http.StatusOK, "in-process check %d: status %d", i, w.Code)
	}
	rep.layer["serve.handler_p50_ms"] = median(handler)
	rep.layer["serve.net_p50_ms"] = rep.layer["raw.latency_ms"] - median(handler)

	// Trace overhead: odd-numbered checks ran under a client span, even
	// ones did not.
	var tracedLat, plainLat []float64
	for i, s := range singleS {
		if sc.stepOf[i] != 0 || s.err != nil {
			continue
		}
		if i%2 == 1 {
			tracedLat = append(tracedLat, ms(s.roundTrip()))
		} else {
			plainLat = append(plainLat, ms(s.roundTrip()))
		}
	}
	rep.layer["trace.overhead_pct"] = 100 * (median(tracedLat)/median(plainLat) - 1)

	// Entry.Detect over encoded pool rows.
	e, ok := r.srv.Registry().Get(serveDataset)
	if !ok {
		return fmt.Errorf("registry lost %s", serveDataset)
	}
	rows := make([][]int32, len(p.rows))
	for i, vals := range p.rows {
		rows[i] = make([]int32, len(vals))
		for a, v := range vals {
			c, ok := e.Schema.Dict(a).Lookup(v)
			if !ok {
				c = int32(e.Schema.Cardinality(a))
			}
			rows[i][a] = c
		}
	}
	var buf []dsl.Violation
	flagged := 0
	t0 := time.Now()
	for _, row := range rows {
		buf = e.Detect(row, buf)
		if len(buf) > 0 {
			flagged++
		}
	}
	rep.layer["serve.detect_ns_per_row"] = float64(time.Since(t0).Nanoseconds()) / float64(len(rows))
	rep.check(flagged == count(p.want), "Entry.Detect flagged %d pool rows, the CLI guard %d", flagged, count(p.want))

	// Each batch form in-process.
	for _, kind := range []string{"csv-check", "csv-rectify", "ndjson-check"} {
		var rowsN, bytesN int
		var busy time.Duration
		for _, b := range p.bodies[kind] {
			req := httptest.NewRequest(b.method, b.path, bytes.NewReader(b.data))
			req.Header.Set("Content-Type", b.contentType)
			w := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(w, req)
			busy += time.Since(t0)
			rowsN += b.rows
			bytesN += w.Body.Len()
			if kind == "csv-rectify" {
				rep.check(bytes.Equal(w.Body.Bytes(), b.rectify), "in-process csv-rectify differs from StreamCSV")
			} else {
				rep.op(checkVerdicts(w.Body.Bytes(), b))
			}
		}
		name := kind
		if kind == "ndjson-check" {
			name = "ndjson"
		}
		rep.layer["serve.batch_rows_per_s."+name] = float64(rowsN) / busy.Seconds()
		if kind == "csv-check" {
			rep.layer["serve.resp_bytes_per_row"] = float64(bytesN) / float64(rowsN)
		}
	}

	// Registry.Load and its parts: schema parse + dsl.Parse, the semantic
	// fingerprint (Minimize + Canon), and compilation.
	var load, parse, fp, comp []float64
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		_, _, err := serve.NewRegistry(nil).Load(uploadDataset, in.uploadCSV, []byte(r.upA))
		load = append(load, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		schema, err := dataset.FromCSV(bytes.NewReader(in.uploadCSV), uploadDataset)
		if err != nil {
			return err
		}
		t0 = time.Now()
		prog, err := dsl.Parse(r.upA, schema)
		parse = append(parse, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		if min, proved, _ := analysis.Minimize(prog, nil); proved {
			analysis.Canon(min, nil)
		} else {
			analysis.Canon(prog, nil)
		}
		fp = append(fp, ms(time.Since(t0)))
		t0 = time.Now()
		_, _, err = compile.Compile(prog, compile.Options{})
		comp = append(comp, ms(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	rep.layer["serve.load_ms"] = median(load)
	rep.layer["dsl.parse_ms"] = median(parse)
	rep.layer["analysis.fingerprint_ms"] = median(fp)
	rep.layer["compile.compile_ms"] = median(comp)

	// The incremental synthesizer outside the server, fed the base step's rows in
	// schedule order: single checks and batch bodies merged by due time.
	inc := synth.NewIncremental(dataset.New(serveDataset, in.attrs), synth.IncrOptions{Synth: synth.Options{IdentitySampler: true}})
	var flush, resynth []float64
	var plainNS int64
	plainN := 0
	feed := func(vals []string) {
		before := inc.Status()
		t0 := time.Now()
		// A window whose synthesis fails is skipped, as the daemon's
		// monitor does; observing continues.
		_, _ = inc.Observe(vals)
		d := time.Since(t0)
		after := inc.Status()
		switch {
		case after.Resyntheses > before.Resyntheses:
			resynth = append(resynth, ms(d))
		case after.Windows > before.Windows:
			flush = append(flush, ms(d))
		default:
			plainNS += d.Nanoseconds()
			plainN++
		}
	}
	j := 0
	for i, d := range sc.due {
		if sc.stepOf[i] != 0 {
			break
		}
		for ; j < len(sc.batchDue) && sc.batchDue[j] < d; j++ {
			if b := sc.batch[j]; b.kind != "upload" {
				for _, vals := range sc.poolAt(sc.batchDue[j]).rows[b.lo : b.lo+b.rows] {
					feed(vals)
				}
			}
		}
		feed(sc.poolAt(d).rows[i%poolRows])
	}
	rep.layer["drift.observe_ns_per_row"] = float64(plainNS) / float64(max(plainN, 1))
	rep.layer["drift.flush_ms"] = median(flush)
	rep.layer["drift.resynth_ms"] = median(resynth)
	return nil
}

// quietChecks is how many single-row checks one quiet round sends.
const quietChecks = 1000

// quietRound is one round of the quiet phase.
type quietRound struct {
	probe     float64   // ms, the machine probe before the round
	echo      float64   // ms, the loopback echo probe before the round
	rtt       []float64 // ms, round trips of the round's single-row checks
	batch     time.Duration
	batchRows int
}

// quietFigures is the quiet phase's end-to-end latency (ms) and batch
// throughput (rows/s), each the median over the rounds of one round's
// figure scaled by that round's own probes: the median round trip by the
// echo probe (to nominalEcho), batch rows over batch time by the machine
// probe (to nominalProbe).
func quietFigures(rounds []quietRound) (latencyMS, rowsPerS float64) {
	var lat, rows []float64
	for _, q := range rounds {
		lat = append(lat, median(q.rtt)*ms(nominalEcho)/q.echo)
		rows = append(rows, float64(q.batchRows)/q.batch.Seconds()/toReference(q.probe))
	}
	return median(lat), median(rows)
}

// quietPhase runs rounds until the deadline. Each round times the machine
// and echo probes while the daemon is idle, then sends quietChecks
// single-row checks and one batch request of each kind, every request
// waiting for the previous response. The end-to-end latency and throughput come from
// here: with one request outstanding, a request's time is the serving
// path's own, not queueing behind the other sender.
func quietPhase(deadline time.Time, p *pool, singles *rawConn, batches *http.Client, url string, rep *report, sp *speed) ([]quietRound, error) {
	var rounds []quietRound
	outs := make([][]byte, quietChecks)
	errs := make([]error, quietChecks)
	rtt := make([]float64, quietChecks)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		q := quietRound{probe: sp.probe()}
		var err error
		if q.echo, err = echoProbe(); err != nil {
			return nil, err
		}
		first := k * quietChecks
		for i := range outs {
			row := (first + i) % poolRows
			t0 := time.Now()
			outs[i], errs[i] = singles.post("/v1/check?dataset="+serveDataset, "application/json",
				"q"+strconv.Itoa(first+i), p.single[row])
			rtt[i] = ms(time.Since(t0))
		}
		for i := range outs {
			err := errs[i]
			if err == nil {
				_, err = verifySingle(outs[i], p.want[(first+i)%poolRows])
			}
			rep.op(err)
			if err == nil {
				q.rtt = append(q.rtt, rtt[i])
			}
		}
		for _, kind := range batchKinds {
			b := p.bodies[kind][k%bodiesPerKind]
			t0 := time.Now()
			out, err := post(batches, b.method, url+b.path, b.contentType, "qb"+strconv.Itoa(k)+"-"+kind, b.data)
			d := time.Since(t0)
			if err == nil {
				err = verifyBatch(b, out)
			}
			rep.op(err)
			if err == nil {
				q.batch += d
				q.batchRows += b.rows
			}
		}
		rounds = append(rounds, q)
	}
	return rounds, nil
}
