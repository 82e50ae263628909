package serve

import (
	"fmt"
	"net/http"
	"sort"
	"sync"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/synth"
)

// DriftConfig configures the daemon's drift monitor: every validated row
// also feeds a per-dataset synth.Incremental driver, so the live traffic
// itself is the stream that windowed drift detection and warm-started
// re-synthesis run on. The zero value disables monitoring.
type DriftConfig struct {
	// Enabled turns the monitor (and the /v1/drift endpoint's data) on.
	Enabled bool
	// WindowRows, MaxWindows, and Alpha tune the underlying incremental
	// driver; zero selects the synth.IncrOptions defaults (256 rows,
	// 8 windows, 1e-3).
	WindowRows int
	MaxWindows int
	Alpha      float64
}

const (
	// driftQueueRows bounds each dataset's queue of rows waiting for its
	// monitor. The queue starts at driftQueueStart rows and doubles while
	// the monitor is behind (a re-synthesis takes milliseconds); a row
	// that finds it full is dropped from the monitor (never from
	// validation) and counted in drift.rows_dropped.
	driftQueueRows  = 65536
	driftQueueStart = 256
	// driftMaxOverflow caps, per attribute, how many distinct values the
	// served schema has not seen get a code of their own in the monitor;
	// later ones share one "other" code and are counted in drift.overflow.
	driftMaxOverflow = 1024
	// driftKick is how many queued rows wake an idle worker while a
	// request is still running; fewer wait for the request's end.
	driftKick = 64
	// driftChunk is the most rows a worker observes per hold of the
	// monitor state, so a backlog frees queue slots, and lets /v1/drift
	// read the state, as it goes.
	driftChunk = 1024
	// otherValue is the monitor's dictionary value for an attribute's
	// overflow slot.
	otherValue = "\x00other"
)

// driftMonitor owns one feed per served dataset. The request path only
// copies each validated row's codes into its feed's bounded queue; a
// worker goroutine per feed does the rest — window merges, drift tests
// and re-synthesis — off the request path. A worker starts when rows are
// waiting and exits when its queue is empty, so an idle monitor holds no
// goroutine. A feed follows one registered program version: drift is
// measured against the statistics behind the *current* constraints, so
// the first row validated by a newly loaded version starts a fresh feed.
type driftMonitor struct {
	cfg      DriftConfig
	obs      *obs.Registry
	live     func(name string) (*Entry, bool)
	dropped  *obs.Counter
	overflow *obs.Counter
	// queueRows and maxOverflow are driftQueueRows and driftMaxOverflow;
	// tests shrink them before the first row arrives.
	queueRows, maxOverflow int

	mu      sync.Mutex
	feeds   map[string]*driftFeed
	workers int       // running worker goroutines
	idle    sync.Cond // broadcast when workers falls to zero
}

func newDriftMonitor(cfg DriftConfig, reg *obs.Registry, live func(string) (*Entry, bool)) *driftMonitor {
	m := &driftMonitor{
		cfg:      cfg,
		obs:      reg,
		live:     live,
		dropped:  reg.Counter("drift.rows_dropped"),
		overflow: reg.Counter("drift.overflow"),
		feeds:    make(map[string]*driftFeed),

		queueRows:   driftQueueRows,
		maxOverflow: driftMaxOverflow,
	}
	m.idle.L = &m.mu
	return m
}

// driftFeed is one dataset's monitor under one program version.
//
// Queued rows hold the request's codes: a value the served schema has
// seen keeps its dictionary code, and an unseen one gets a code from the
// feed's overflow dictionary, past the schema's cardinality (the
// request's own code for it is request-local). The worker translates
// each queued code, on first sight, into the monitor relation's
// dictionary, which therefore interns values in stream order without
// hashing a string per row, and never interns into Entry.Schema.
type driftFeed struct {
	m      *driftMonitor
	entry  *Entry
	width  int
	cap    int     // most rows the queue may hold
	maxOvf int     // distinct unseen values per attribute with their own code
	cards  []int32 // the schema's cardinality per attribute
	run    func()  // work, bound once so starting a worker allocates nothing

	mu sync.Mutex // guards the fields below up to state
	// queue is a ring of size rows of width codes; rows [head, head+n)
	// wait. It doubles, up to cap rows, when a row finds it full.
	queue         []int32
	size, head, n int
	running       bool // a worker goroutine owns the queued rows
	retired       bool // a newer program version took over; queued rows are dropped
	dropped       int
	// ovf[a] maps an unseen value of attribute a to its overflow code
	// cards[a]+k; ovfVals[a][k] is the value. Past maxOvf values, code
	// cards[a]+maxOvf is the shared "other" slot.
	ovf      []map[string]int32
	ovfVals  [][]string
	overflow int // values counted into an "other" slot

	state   sync.Mutex // guards the worker's state below
	inc     *synth.Incremental
	tr      [][]int32 // queued code -> monitor code, -1 before first sight
	row     []int32
	lastErr string
}

func (m *driftMonitor) newFeed(e *Entry) *driftFeed {
	width := e.Schema.NumAttrs()
	f := &driftFeed{
		m:       m,
		entry:   e,
		width:   width,
		cap:     m.queueRows,
		maxOvf:  m.maxOverflow,
		cards:   make([]int32, width),
		ovf:     make([]map[string]int32, width),
		ovfVals: make([][]string, width),
		tr:      make([][]int32, width),
		row:     make([]int32, width),
		inc: synth.NewIncremental(dataset.New(e.Name, e.Schema.Attrs()), synth.IncrOptions{
			WindowRows: m.cfg.WindowRows,
			MaxWindows: m.cfg.MaxWindows,
			DriftAlpha: m.cfg.Alpha,
			Synth:      synth.Options{IdentitySampler: true, Obs: m.obs},
		}),
	}
	f.run = f.work
	f.size = min(driftQueueStart, f.cap)
	f.queue = make([]int32, f.size*width)
	for a := range f.cards {
		f.cards[a] = int32(e.Schema.Cardinality(a))
		tr := make([]int32, int(f.cards[a])+f.maxOvf+1)
		for i := range tr {
			tr[i] = -1
		}
		f.tr[a] = tr
	}
	return f
}

// feedFor returns the feed that rows validated by e go to, or nil when e
// is no longer the dataset's live version: rows of a request that
// resolved a superseded program describe that program, not the current
// one. A request calls it once, before its first row.
func (m *driftMonitor) feedFor(e *Entry) *driftFeed {
	m.mu.Lock()
	old := m.feeds[e.Name]
	if old != nil && old.entry == e {
		m.mu.Unlock()
		return old
	}
	if cur, ok := m.live(e.Name); !ok || cur != e {
		m.mu.Unlock()
		return nil
	}
	f := m.newFeed(e)
	m.feeds[e.Name] = f
	m.mu.Unlock()
	if old != nil {
		old.retire()
	}
	return f
}

// push queues one validated row (codes in schema order, decodable by
// enc). It never blocks on the monitor: a full queue drops the row and
// counts it.
func (f *driftFeed) push(codes []int32, enc *dataset.Encoder) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.retired {
		return
	}
	if f.n == f.size {
		if f.size == f.cap {
			f.dropped++
			f.m.dropped.Inc()
			return
		}
		f.grow()
	}
	i := f.head + f.n
	if i >= f.size {
		i -= f.size
	}
	slot := f.queue[i*f.width : i*f.width+f.width]
	for a, c := range codes {
		if c >= f.cards[a] {
			c = f.overflowCode(a, enc.Decode(a, c))
		}
		slot[a] = c
	}
	f.n++
	if (f.n >= driftKick || f.n == f.cap) && !f.running {
		f.start()
	}
}

// grow doubles the full queue, up to cap rows, moving the oldest queued
// row to slot 0. A worker reading rows from the old ring keeps reading
// them there; it then advances head past them in the new one. Callers
// hold f.mu.
func (f *driftFeed) grow() {
	size := min(2*f.size, f.cap)
	q := make([]int32, size*f.width)
	k := copy(q, f.queue[f.head*f.width:])
	copy(q[k:], f.queue[:f.head*f.width])
	f.queue, f.size, f.head = q, size, 0
}

// overflowCode returns the feed's code for attribute a's unseen value s.
// Callers hold f.mu.
func (f *driftFeed) overflowCode(a int, s string) int32 {
	if c, ok := f.ovf[a][s]; ok {
		return c
	}
	k := len(f.ovfVals[a])
	if k == f.maxOvf {
		f.overflow++
		f.m.overflow.Inc()
		return f.cards[a] + int32(k)
	}
	if f.ovf[a] == nil {
		f.ovf[a] = make(map[string]int32)
	}
	c := f.cards[a] + int32(k)
	f.ovf[a][s] = c
	f.ovfVals[a] = append(f.ovfVals[a], s)
	return c
}

// kick starts a worker for rows left waiting below driftKick; requests
// call it when they finish.
func (f *driftFeed) kick() {
	f.mu.Lock()
	if f.n > 0 && !f.running && !f.retired {
		f.start()
	}
	f.mu.Unlock()
}

// start launches the feed's worker. Callers hold f.mu.
func (f *driftFeed) start() {
	f.running = true
	f.m.mu.Lock()
	f.m.workers++
	f.m.mu.Unlock()
	go f.run() // nakedgo-exempt package: the worker exits when its queue is empty
}

// retire stops the feed: queued rows are dropped and later pushes ignored.
func (f *driftFeed) retire() {
	f.mu.Lock()
	f.retired = true
	f.mu.Unlock()
}

// work moves queued rows into the monitor until the queue is empty. It
// observes rows in place: the producer writes only free slots, and the
// rows being observed stay queued until they are done.
func (f *driftFeed) work() {
	for {
		f.mu.Lock()
		if f.retired {
			f.n = 0
		}
		if f.n == 0 {
			f.running = false
			f.mu.Unlock()
			f.m.mu.Lock()
			if f.m.workers--; f.m.workers == 0 {
				f.m.idle.Broadcast()
			}
			f.m.mu.Unlock()
			return
		}
		queue, size, head, n := f.queue, f.size, f.head, min(f.n, driftChunk)
		f.mu.Unlock()

		f.observe(queue, size, head, n)

		f.mu.Lock()
		if f.head += n; f.head >= f.size {
			f.head -= f.size
		}
		f.n -= n
		f.mu.Unlock()
	}
}

// observe feeds n rows from head of a ring of size rows into the
// incremental driver. Synthesis failures (e.g. degenerate windows) are
// surfaced on /v1/drift, and so is a panic, which abandons the rest of
// the rows: validation never depends on the monitor, and the daemon must
// outlive it.
func (f *driftFeed) observe(queue []int32, size, head, n int) {
	f.state.Lock()
	defer f.state.Unlock()
	defer func() {
		if r := recover(); r != nil {
			f.lastErr = fmt.Sprintf("drift monitor panic: %v", r)
		}
	}()
	rel := f.inc.Rel()
	for k := 0; k < n; k++ {
		i := head + k
		if i >= size {
			i -= size
		}
		for a, c := range queue[i*f.width : i*f.width+f.width] {
			if c != dataset.Missing {
				m := f.tr[a][c]
				if m < 0 {
					m = rel.Intern(a, f.value(a, c))
					f.tr[a][c] = m
				}
				c = m
			}
			f.row[a] = c
		}
		if _, err := f.inc.ObserveCodes(f.row); err != nil {
			f.lastErr = err.Error()
		}
	}
}

// value decodes a queued code of attribute a.
func (f *driftFeed) value(a int, c int32) string {
	if c < f.cards[a] {
		return f.entry.Schema.Dict(a).Value(c)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if k := int(c - f.cards[a]); k < len(f.ovfVals[a]) {
		return f.ovfVals[a][k]
	}
	return otherValue
}

// drain blocks until every row queued so far has reached its monitor:
// it starts a worker for each feed with rows waiting and returns once no
// worker runs. /v1/drift then reflects exactly the rows accepted before
// the call, in order — the synchronous hook tests take a deterministic
// snapshot through, and Run's last step, so no worker outlives it.
func (m *driftMonitor) drain() {
	for _, f := range m.current() {
		f.kick()
	}
	m.mu.Lock()
	for m.workers > 0 {
		m.idle.Wait()
	}
	m.mu.Unlock()
}

// current lists the live feeds by dataset name.
func (m *driftMonitor) current() []*driftFeed {
	m.mu.Lock()
	feeds := make([]*driftFeed, 0, len(m.feeds))
	for _, f := range m.feeds {
		feeds = append(feeds, f)
	}
	m.mu.Unlock()
	sort.Slice(feeds, func(i, j int) bool { return feeds[i].entry.Name < feeds[j].entry.Name })
	return feeds
}

// observeDrift hands one validated row to the drift monitor, resolving
// the request's feed on its first row. A no-op when monitoring is
// disabled.
func (s *Server) observeDrift(e *Entry, buf *rowBuf, rc *reqInfo) {
	if s.drift == nil {
		return
	}
	if !rc.driftResolved {
		rc.driftResolved = true
		rc.drift = s.drift.feedFor(e)
	}
	if rc.drift != nil {
		rc.drift.push(buf.codes, buf.enc)
	}
}

// drainDrift is driftMonitor.drain, a no-op when monitoring is disabled.
func (s *Server) drainDrift() {
	if s.drift != nil {
		s.drift.drain()
	}
}

// driftStatus is the wire form of one dataset's monitor state.
type driftStatus struct {
	Dataset string `json:"dataset"`
	// ProgramFingerprint is the served program version the monitor's
	// baseline was built under (not the synthesized program's own
	// fingerprint, which is IncrStatus.Fingerprint).
	ProgramFingerprint string `json:"program_fingerprint"`
	LastError          string `json:"last_error,omitempty"`
	// RowsDropped counts rows a full queue kept from the monitor.
	RowsDropped int `json:"rows_dropped,omitempty"`
	// Overflow counts values that went to an attribute's "other" slot.
	Overflow int `json:"overflow,omitempty"`
	synth.IncrStatus
}

// status snapshots the feed. Rows still queued are not in it yet.
func (f *driftFeed) status() driftStatus {
	f.state.Lock()
	st := driftStatus{
		Dataset:            f.entry.Name,
		ProgramFingerprint: f.entry.FingerprintHex(),
		LastError:          f.lastErr,
		IncrStatus:         f.inc.Status(),
	}
	f.state.Unlock()
	f.mu.Lock()
	st.RowsDropped, st.Overflow = f.dropped, f.overflow
	f.mu.Unlock()
	return st
}

// driftResponse is the GET /v1/drift body.
type driftResponse struct {
	Enabled    bool          `json:"enabled"`
	WindowRows int           `json:"window_rows,omitempty"`
	MaxWindows int           `json:"max_windows,omitempty"`
	Alpha      float64       `json:"alpha,omitempty"`
	Datasets   []driftStatus `json:"datasets"`
}

// handleDrift reports the drift monitor's per-dataset status: rows
// observed, windows merged, triggers fired, and the change-event stream
// with old/new program fingerprints. Rows still queued for a worker show
// up on a later call.
func (s *Server) handleDrift(w http.ResponseWriter, _ *http.Request, _ *reqInfo) {
	if s.drift == nil {
		writeJSON(w, http.StatusOK, driftResponse{Datasets: []driftStatus{}})
		return
	}
	feeds := s.drift.current()
	resp := driftResponse{
		Enabled:    true,
		WindowRows: s.drift.cfg.WindowRows,
		MaxWindows: s.drift.cfg.MaxWindows,
		Alpha:      s.drift.cfg.Alpha,
		Datasets:   make([]driftStatus, 0, len(feeds)),
	}
	for _, f := range feeds {
		resp.Datasets = append(resp.Datasets, f.status())
	}
	writeJSON(w, http.StatusOK, resp)
}
