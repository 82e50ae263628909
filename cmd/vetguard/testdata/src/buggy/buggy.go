// Package buggy is a vetguard test fixture: each bug class the linter must
// catch appears here, plus one annotated instance that must be suppressed.
package buggy

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"

	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// MapRangeAppend leaks map iteration order into the returned slice.
func MapRangeAppend(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// MapRangePrint writes rows in map iteration order.
func MapRangePrint(m map[int]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// MapRangeFieldAppend leaks map order into a struct field.
type collector struct{ rows []string }

func (c *collector) MapRangeFieldAppend(m map[string]bool) {
	for k := range m {
		c.rows = append(c.rows, k)
	}
}

// MapRangeFloatAccum sums floats in map iteration order: float addition
// is not associative, so the rounding — and any comparison against a
// nearby threshold — differs run to run (the G² strata bug).
func MapRangeFloatAccum(m map[string]float64) float64 {
	var g float64
	for _, v := range m {
		g += 2 * v
	}
	return g
}

// GlobalRand draws from the shared process-wide source.
func GlobalRand() int {
	return rand.Intn(10)
}

// GlobalShuffle also goes through the global source.
func GlobalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// IgnoredError discards os.Remove's error result.
func IgnoredError(path string) {
	os.Remove(path)
}

// SuppressedError is exempted by annotation.
func SuppressedError(path string) {
	os.Remove(path) //vetguard:ignore best-effort cleanup
}

// NakedGoroutine launches work outside the internal/par worker pool.
func NakedGoroutine(done chan struct{}) {
	go func() {
		close(done)
	}()
}

// NakedGoCall is the call-expression form of the same bug.
func NakedGoCall(done chan struct{}) {
	go closeLater(done)
}

func closeLater(done chan struct{}) { close(done) }

// SuppressedGoroutine is exempted by annotation.
func SuppressedGoroutine(done chan struct{}) {
	go closeLater(done) //vetguard:ignore test harness plumbing
}

// guarded holds a mutex: every by-value move of it forks the lock word.
type guarded struct {
	mu   sync.Mutex
	hits int
}

// RegCopyParam receives the lock-holding struct by value.
func RegCopyParam(g guarded) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hits
}

// RegCopyResult returns the lock-holding struct by value.
func RegCopyResult() (g guarded) {
	return g
}

// RegCopyReceiver is a value-receiver method on the lock-holding struct.
func (g guarded) RegCopyReceiver() int {
	return g.hits
}

// RegCopyRange copies each element's mutex on every iteration.
func RegCopyRange(gs []guarded) int {
	n := 0
	for _, g := range gs {
		n += g.hits
	}
	return n
}

// RegCopyAtomic moves an atomic counter by value, forking its register.
func RegCopyAtomic(c atomic.Int32) int32 {
	return c.Load()
}

// SuppressedRegCopy is exempted by annotation.
func SuppressedRegCopy(g guarded) int { //vetguard:ignore snapshot of an idle struct
	return g.hits
}

// SpanLeakNeverClosed starts a trace span and never ends it: the record
// exports as unfinished with no duration.
func SpanLeakNeverClosed(sc trace.Scope) {
	sp := sc.Start("work")
	sp.Event("tick")
}

// SpanLeakOnReturnPath closes the stage only on the happy path; the
// error return abandons it and the stage never records.
func SpanLeakOnReturnPath(r *obs.Registry, sc trace.Scope, fail bool) error {
	sp := r.Stage(sc, "stage")
	if fail {
		return fmt.Errorf("boom")
	}
	sp.End()
	return nil
}

// SpanLeakSecondReturn ends the span via a chained attribute call on one
// branch but leaks it on the other.
func SpanLeakSecondReturn(sc trace.Scope, n int) int {
	sp := sc.Start("count").Int("n", int64(n))
	if n > 0 {
		sp.Int("pos", 1).End()
		return n
	}
	return -n
}

// SuppressedSpanLeak is exempted by annotation.
func SuppressedSpanLeak(sc trace.Scope) {
	sp := sc.Start("fire-and-forget") //vetguard:ignore exporter flags it as unfinished on purpose
	sp.Event("armed")
}

// DeferredIgnoredError defers a Close whose error nobody will ever see —
// precisely the write-side flush failure that matters.
func DeferredIgnoredError(f *os.File) {
	defer f.Close()
	fmt.Fprintln(f, "row")
}

// GoroutineIgnoredError launches a call whose error vanishes on a
// goroutine no one joins (also a nakedgo finding).
func GoroutineIgnoredError(path string) {
	go os.Remove(path)
}

// LockLeakEarlyReturn returns with the mutex still held on the error
// path: the next Lock deadlocks.
func LockLeakEarlyReturn(g *guarded, bail bool) int {
	g.mu.Lock()
	if bail {
		return -1
	}
	n := g.hits
	g.mu.Unlock()
	return n
}

// RLockLeakFallthrough releases the read lock only inside the loop that
// found a hit; falling through leaks it.
type rwGuarded struct {
	mu   sync.RWMutex
	keys []string
}

func (g *rwGuarded) RLockLeakFallthrough(want string) bool {
	g.mu.RLock()
	for _, k := range g.keys {
		if k == want {
			g.mu.RUnlock()
			return true
		}
	}
	return false
}

// DeadErrOverwritten assigns step one's error and overwrites it before
// anything reads it: the first failure is swallowed.
func DeadErrOverwritten(path string) error {
	err := os.Remove(path)
	err = os.Remove(path + ".bak")
	if err != nil {
		return err
	}
	return nil
}

// DeadErrDroppedOnOnePath checks the error on the slow path but the
// fast-path return drops it unread.
func DeadErrDroppedOnOnePath(path string, fast bool) error {
	err := os.Remove(path)
	if fast {
		return nil
	}
	return err
}

// MapOrderPlainFloatAccum is the plain-assignment spelling of float
// accumulation over a map — invisible to the compound-only syntactic
// check, caught by taint flow.
func MapOrderPlainFloatAccum(m map[string]float64) float64 {
	var g float64
	for _, v := range m {
		g = g + v
	}
	return g
}

// MapOrderEscapedPrint lets a map-ordered value escape the loop and
// reach output afterwards: no sink is inside the range body, so only
// the flow-sensitive layer sees it.
func MapOrderEscapedPrint(m map[string]int) {
	var last string
	for k := range m {
		last = k
	}
	fmt.Println(last)
}

// MapOrderChainedAccum ranges over the unsorted key slice in a second
// loop and accumulates floats in that (map-derived) order. The append
// is the syntactic finding; the accumulation two statements later is
// flow-only.
func MapOrderChainedAccum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	var total float64
	for _, k := range keys {
		total += m[k]
	}
	return total
}
