// Package serve is the long-running validation daemon behind `guardrail
// serve`: an HTTP service that checks and rectifies rows against a
// registry of loaded guard programs. It is the online counterpart of the
// one-shot check/rectify verbs — the endpoint a telegraf-style agent
// polling live databases ships rows through.
//
// The package is built around three production concerns:
//
//   - Hot reload. Programs live in a copy-on-write registry behind an
//     atomic.Pointer; a reload parses, compiles, and fingerprints the new
//     program off to the side and swaps the whole map in one store.
//     In-flight requests resolved their entry before the swap and finish
//     on the old version; every response echoes the version it used in
//     the X-Guardrail-Fingerprint header. A reload whose semantic
//     fingerprint matches the live entry is a no-op — the old entry (and
//     its warmed compiled engine) stays.
//
//   - Backpressure. A bounded admission gate caps in-flight validation
//     requests; excess load is rejected immediately with 429 rather than
//     queued into memory. Single-row request bodies are size-limited.
//
//   - Drain. Run serves until its context is cancelled (the CLI wires
//     SIGTERM/SIGINT), then stops accepting and drains in-flight
//     requests with a deadline, so a rolling restart never drops a row
//     mid-validation.
//
// Rows run through the same guard runtime as the offline verbs: each
// Entry embeds an immutable core.Engine, and each request builds its own
// core.Guard on it, so verdicts and changed-cell counts match `guardrail
// check`/`rectify` on the same rows.
//
// Like the rest of the pipeline, serving is observable for free: per-
// endpoint latency histograms and request/row/violation counters land on
// the shared internal/obs registry, which the Prometheus /metrics
// endpoint (mounted here and on -debug-addr) renders for scraping.
package serve

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/analysis"
	"github.com/guardrail-db/guardrail/internal/dsl/compile"
	"github.com/guardrail-db/guardrail/internal/obs"
)

// Entry is one immutable registered program version. All fields are
// frozen at Load time: the schema's dictionaries are never interned into
// while serving (the codec encodes unseen values to an out-of-dictionary
// sentinel instead), so a single Entry is safe for any number of
// concurrent requests.
type Entry struct {
	// Name is the dataset name the entry is registered under.
	Name string
	// Engine runs the program: compiled once per version, or on the AST
	// with the reason in Fallback when translation validation failed.
	// Each request builds its own Guard on it.
	*core.Engine
	// Schema is the relation the program was parsed against; its
	// dictionaries decode response values and encode request rows.
	Schema *dataset.Relation
	// Fingerprint identifies the program version a response was computed
	// with. It hashes the solver-canonical form of the program plus the
	// decoded string of every (attribute, code) the program mentions, so
	// two loads collide only when they are semantically equivalent at the
	// string level — code-level canon alone could collide across
	// different dictionary encodings.
	Fingerprint uint64
	// LoadedAt is when this version was swapped in.
	LoadedAt time.Time
	// Version counts swaps of this name, starting at 1. No-op reloads do
	// not advance it.
	Version int

	fpHex string
}

// FingerprintHex renders the fingerprint as the 16-digit hex string used
// in response headers and the programs API. It is formatted once, at
// Load.
func (e *Entry) FingerprintHex() string { return e.fpHex }

// newEngine builds an entry's engine. It is a variable so registry tests
// can force the AST fallback path.
var newEngine = core.CompileEngine

// Registry maps dataset names to their live program entries. Reads are a
// single atomic load of a copy-on-write map — the request hot path takes
// no lock and sees a consistent version for its whole lifetime. Writers
// serialize on a mutex and swap the full map.
type Registry struct {
	mu   sync.Mutex // serializes Load/Remove
	live atomic.Pointer[map[string]*Entry]

	obs         *obs.Registry
	reloads     *obs.Counter
	reloadNoops *obs.Counter
	fallbacks   *obs.Counter
	programs    *obs.Gauge

	// now is a clock seam for tests; nil means time.Now.
	now func() time.Time
}

// NewRegistry builds an empty registry. reg receives the serve.reload*
// counters and the serve.programs gauge, and is forwarded to each
// compilation for the compile.* counters; nil disables instrumentation.
func NewRegistry(reg *obs.Registry) *Registry {
	r := &Registry{
		obs:         reg,
		reloads:     reg.Counter("serve.reloads"),
		reloadNoops: reg.Counter("serve.reload_noops"),
		fallbacks:   reg.Counter("serve.compile_fallbacks"),
		programs:    reg.Gauge("serve.programs"),
	}
	m := map[string]*Entry{}
	r.live.Store(&m)
	return r
}

// Get returns the live entry for name.
func (r *Registry) Get(name string) (*Entry, bool) {
	e, ok := (*r.live.Load())[name]
	return e, ok
}

// Names returns the registered dataset names, sorted.
func (r *Registry) Names() []string {
	m := *r.live.Load()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Entries returns the live entries sorted by name.
func (r *Registry) Entries() []*Entry {
	m := *r.live.Load()
	out := make([]*Entry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Load parses schemaCSV and progSrc, compiles the program (falling back
// to the AST on failure), and registers the result under name. When the
// new version's semantic fingerprint matches the live entry the reload is
// a no-op: the existing entry is returned with changed=false and stays
// live, keeping its warmed compiled engine. Parse errors leave the live
// entry untouched.
func (r *Registry) Load(name string, schemaCSV, progSrc []byte) (e *Entry, changed bool, err error) {
	rel, err := dataset.FromCSV(bytes.NewReader(schemaCSV), name)
	if err != nil {
		return nil, false, fmt.Errorf("serve: load %s: %w", name, err)
	}
	prog, err := dsl.Parse(string(progSrc), rel)
	if err != nil {
		return nil, false, fmt.Errorf("serve: load %s: parse program: %w", name, err)
	}
	fp := semanticFingerprint(prog, rel)

	r.mu.Lock()
	defer r.mu.Unlock()
	old := (*r.live.Load())[name]
	if old != nil && old.Fingerprint == fp {
		r.reloadNoops.Inc()
		return old, false, nil
	}

	// Compile once per version over the open universe: request rows may
	// carry values the schema never interned, which is exactly the
	// grown-code regime the open-universe engine handles.
	entry := &Entry{
		Name:        name,
		Engine:      newEngine(prog, compile.Options{Obs: r.obs}),
		Schema:      rel,
		Fingerprint: fp,
		LoadedAt:    r.clock(),
		Version:     1,
		fpHex:       fmt.Sprintf("%016x", fp),
	}
	if old != nil {
		entry.Version = old.Version + 1
	}
	if entry.Fallback() != nil {
		r.fallbacks.Inc()
	}
	r.swap(func(m map[string]*Entry) { m[name] = entry })
	r.reloads.Inc()
	return entry, true, nil
}

// LoadFiles is Load reading the schema CSV and program from disk.
func (r *Registry) LoadFiles(name, csvPath, progPath string) (*Entry, bool, error) {
	schemaCSV, err := os.ReadFile(csvPath)
	if err != nil {
		return nil, false, fmt.Errorf("serve: load %s: %w", name, err)
	}
	progSrc, err := os.ReadFile(progPath)
	if err != nil {
		return nil, false, fmt.Errorf("serve: load %s: %w", name, err)
	}
	return r.Load(name, schemaCSV, progSrc)
}

// Remove unregisters name, reporting whether it was present. In-flight
// requests holding the entry finish normally.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := (*r.live.Load())[name]; !ok {
		return false
	}
	r.swap(func(m map[string]*Entry) { delete(m, name) })
	return true
}

// swap clones the live map, applies mutate, and publishes the clone.
// Callers hold r.mu.
func (r *Registry) swap(mutate func(map[string]*Entry)) {
	oldM := *r.live.Load()
	m := make(map[string]*Entry, len(oldM)+1)
	for k, v := range oldM {
		m[k] = v
	}
	mutate(m)
	r.live.Store(&m)
	r.programs.Set(int64(len(m)))
}

func (r *Registry) clock() time.Time {
	if r.now != nil {
		return r.now()
	}
	return time.Now()
}

// semanticFingerprint hashes what a program means, not how it is spelled:
// the solver-canonical form from analysis.Canon (dead branches dropped,
// atoms sorted and deduplicated) concatenated with the schema's attribute
// names and the decoded string of every (attribute, code) pair the
// program mentions. The decode table is what makes cross-load comparison
// sound — canon strings are over dictionary codes, and two different
// programs parsed against the same schema CSV can intern different
// literals at the same code.
func semanticFingerprint(p *dsl.Program, rel *dataset.Relation) uint64 {
	// Minimize first so the literal table below only covers cells a live
	// branch can touch: Canon erases dead branches, and a literal only a
	// dead branch mentions must not perturb the fingerprint. Falls back to
	// the unminimized program if the minimizer's self-proof fails — then
	// the fingerprint is merely conservative (extra literals can force a
	// swap, never suppress one).
	if min, proved, _ := analysis.Minimize(p, nil); proved {
		p = min
	}
	canon, _ := analysis.Canon(p, nil)
	var b strings.Builder
	b.WriteString(canon)
	b.WriteString("\n#schema:")
	for i := 0; i < rel.NumAttrs(); i++ {
		fmt.Fprintf(&b, "%q,", rel.Attr(i))
	}
	b.WriteString("\n#dict:")
	type cell struct {
		attr int
		code int32
	}
	seen := map[cell]bool{}
	cells := []cell{}
	add := func(attr int, code int32) {
		c := cell{attr, code}
		if code == dataset.Missing || seen[c] {
			return
		}
		seen[c] = true
		cells = append(cells, c)
	}
	for _, st := range p.Stmts {
		for _, br := range st.Branches {
			add(st.On, br.Value)
			for _, atom := range br.Cond {
				add(atom.Attr, atom.Value)
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].attr != cells[j].attr {
			return cells[i].attr < cells[j].attr
		}
		return cells[i].code < cells[j].code
	})
	for _, c := range cells {
		fmt.Fprintf(&b, "%d=%d:%q;", c.attr, c.code, rel.Dict(c.attr).Value(c.code))
	}
	return analysis.Fingerprint(b.String())
}
