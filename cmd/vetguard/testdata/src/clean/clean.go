// Package clean is a vetguard test fixture of patterns that must NOT be
// flagged: the collect-then-sort idiom, order-insensitive accumulation,
// seeded rand sources, and handled errors.
package clean

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"

	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// SortedKeys is the canonical deterministic map iteration.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SlicesSortedKeys exonerates via the slices package instead of sort.
func SlicesSortedKeys(m map[int]string) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// SortedSlice exonerates via sort.Slice after the loop.
func SortedSlice(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// Sum accumulates order-insensitively: integer addition commutes
// exactly, so map order cannot leak.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// SortedFloatSum is the deterministic form of float accumulation over a
// map: collect the keys, sort them, then add in sorted order.
func SortedFloatSum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total float64
	for _, k := range keys {
		total += m[k]
	}
	return total
}

// PerIterationFloat accumulates into a float scoped to one iteration of
// the map loop, so no cross-iteration order can leak.
func PerIterationFloat(m map[string][]float64) int {
	n := 0
	for _, vs := range m {
		var local float64
		for _, v := range vs {
			local += v
		}
		if local > 0 {
			n++
		}
	}
	return n
}

// PerIteration appends only to a slice scoped to one iteration.
func PerIteration(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		for _, v := range vs {
			local = append(local, v*2)
		}
		n += len(local)
	}
	return n
}

// SeededRand draws from an owned, seeded source.
func SeededRand(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(10)
}

// HandledError propagates the error.
func HandledError(path string) error {
	if err := os.Remove(path); err != nil {
		return err
	}
	fmt.Println("removed", path)
	return nil
}

// DeferredClose discards the read-side Close error explicitly — the
// sanctioned idiom now that deferred calls are checked too.
func DeferredClose(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	return nil
}

// counter holds a mutex; passing it around by pointer shares the lock.
type counter struct {
	mu sync.Mutex
	n  int
}

// PointerParam shares the lock instead of copying it.
func PointerParam(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// PointerReceiver is the canonical method shape for lock-holding types.
func (c *counter) Bump() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// LockerParam takes the sync.Locker interface: copying an interface value
// copies a reference, not the mutex behind it.
func LockerParam(l sync.Locker) {
	l.Lock()
	l.Unlock()
}

// SliceOfLocks passes a slice header by value — the mutexes themselves stay
// shared — and iterates by index so no element is copied.
func SliceOfLocks(ms []sync.Mutex) {
	for i := range ms {
		ms[i].Lock()
		ms[i].Unlock()
	}
}

// PointerElements ranges over pointers, so the value variable copies only a
// pointer.
func PointerElements(cs []*counter) int {
	n := 0
	for _, c := range cs {
		n += c.n
	}
	return n
}

// DeferredSpan closes the span with the canonical defer.
func DeferredSpan(sc trace.Scope) {
	sp := sc.Start("stage")
	defer sp.End()
	sp.Event("tick")
}

// ClosedOnEveryPath ends the stage on both the error and the happy
// path.
func ClosedOnEveryPath(r *obs.Registry, sc trace.Scope, fail bool) error {
	sp := r.Stage(sc, "stage")
	if fail {
		sp.End()
		return fmt.Errorf("boom")
	}
	sp.End()
	return nil
}

// ClosedBeforeBranch ends the span unconditionally before the error
// check — the guard-loop idiom.
func ClosedBeforeBranch(sc trace.Scope, err error) error {
	sp := sc.Start("row")
	sp.End()
	if err != nil {
		return err
	}
	return nil
}

// OwnershipMoves hands the span to the caller, who closes it.
func OwnershipMoves(sc trace.Scope) trace.Span {
	sp := sc.Start("handed-off").Int("k", 1)
	return sp
}

// SampledSpan mirrors the guard's 1-in-N sampling: a zero-value span,
// conditionally started, unconditionally ended (End on a zero span is a
// no-op).
func SampledSpan(sc trace.Scope, rows int) {
	var sp trace.Span
	for i := 0; i < rows; i++ {
		if i%100 == 0 {
			sp = sc.Start("row").Int("row", int64(i))
		}
		sp.End()
	}
}

// BalancedEarlyReturn releases the lock on the early-return path before
// leaving — the explicit-unlock counterpart of defer.
func BalancedEarlyReturn(c *counter, bail bool) int {
	c.mu.Lock()
	if bail {
		c.mu.Unlock()
		return -1
	}
	n := c.n
	c.mu.Unlock()
	return n
}

// DeferredUnlockLiteral releases inside a deferred closure; every path
// out of the function runs it.
func DeferredUnlockLiteral(c *counter) int {
	c.mu.Lock()
	defer func() { c.mu.Unlock() }()
	return c.n
}

// FallbackError reads the first error before deciding to retry: both
// assignments are consumed on every path.
func FallbackError(path string) error {
	err := os.Remove(path)
	if err != nil {
		err = os.Remove(path + ".bak")
	}
	return err
}

// RetryLoop keeps only the last attempt's error on purpose — each
// iteration's error is read by the loop condition before the next
// assignment lands.
func RetryLoop(path string, attempts int) error {
	var err error
	for i := 0; i < attempts; i++ {
		err = os.Remove(path)
		if err == nil {
			return nil
		}
	}
	return err
}

// SortedChainAccum launders the collected keys with a sort before the
// second loop, so the accumulation order is deterministic.
func SortedChainAccum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total float64
	for _, k := range keys {
		total = total + m[k]
	}
	return total
}

type byName []string

func (b byName) Len() int           { return len(b) }
func (b byName) Less(i, j int) bool { return b[i] < b[j] }
func (b byName) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// ConvertedSortAccum sorts the collected keys through a sort.Interface
// conversion before the second loop, so the accumulation order is
// deterministic.
func ConvertedSortAccum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Sort(byName(keys))
	var total float64
	for _, k := range keys {
		total += m[k]
	}
	return total
}

var errShort = errors.New("clean: short read")

// TaglessSwitchRead reads err in the first case expression of a tagless
// switch: the later cases and the fall-out path run only after it.
func TaglessSwitchRead(r io.Reader, p []byte) (int, error) {
	n, err := r.Read(p)
	switch {
	case err != nil:
		return 0, err
	case n > 0:
		return n, nil
	}
	return 0, errShort
}
