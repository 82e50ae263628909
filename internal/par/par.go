// Package par is the concurrency substrate of the synthesis pipeline: a
// bounded worker pool whose results come back in submission order, no
// matter which worker finishes first. Every goroutine in the project goes
// through this package (enforced by vetguard's nakedgo check), which keeps
// the determinism argument local: callers submit pure tasks, the pool
// schedules them arbitrarily, and the ordered collection step makes the
// merged outcome independent of that schedule.
//
// Workers == 1 is a true serial fast path — tasks run inline on the
// submitting goroutine with no channels or goroutines involved — so a
// single-worker pipeline reproduces pre-pool behavior exactly.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// Resolve normalizes a Workers option: values <= 0 select
// runtime.GOMAXPROCS(0); anything positive is returned unchanged.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// PanicError carries a worker panic across goroutines; Pool.Wait re-panics
// with it so a crash in a worker crashes the caller, stack attached.
type PanicError struct {
	// Value is the original panic value.
	Value any
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("par: worker panicked: %v\n%s", p.Value, p.Stack)
}

// cell receives one task's outcome. The submitting goroutine owns the
// slice of cells; exactly one worker writes each cell's fields, and Wait
// reads them only after every worker has exited, so no field needs a lock.
type cell[T any] struct {
	val      T
	err      error
	panicked *PanicError
}

type item[T any] struct {
	cell *cell[T]
	fn   func(context.Context) (T, error)
	idx  int
}

// Pool runs submitted tasks on a bounded set of workers. Submit and Wait
// must be called from a single goroutine; after Wait the pool is spent.
// The first task error (or panic) cancels the pool's context, so
// still-queued tasks are skipped and in-flight tasks can exit early.
type Pool[T any] struct {
	ctx     context.Context
	cancel  context.CancelFunc
	workers int
	tasks   chan item[T]
	wg      sync.WaitGroup
	cells   []*cell[T]
	serial  bool
	// sc is the submitting goroutine's trace scope, captured at New. Each
	// worker rebinds it onto its own tracer lane (worker w → lane w+1), so
	// every span a task emits lands in a buffer only that worker writes.
	sc trace.Scope

	failOnce sync.Once
	batchErr error // first task error observed; set before cancelling
}

// New builds a pool of Resolve(workers) workers bound to ctx.
func New[T any](ctx context.Context, workers int) *Pool[T] {
	workers = Resolve(workers)
	sc := trace.FromContext(ctx)
	ctx, cancel := context.WithCancel(ctx)
	p := &Pool[T]{ctx: ctx, cancel: cancel, workers: workers, sc: sc}
	if workers == 1 {
		p.serial = true
		return p
	}
	p.tasks = make(chan item[T])
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// Submit queues fn. With one worker it runs inline immediately; otherwise
// Submit blocks until a worker is free, bounding queued work.
func (p *Pool[T]) Submit(fn func(context.Context) (T, error)) {
	c := &cell[T]{}
	p.cells = append(p.cells, c)
	it := item[T]{cell: c, fn: fn, idx: len(p.cells) - 1}
	if p.serial {
		// Same skip rule as the worker loop: a failed or cancelled batch
		// marks the remaining cells instead of running them.
		if err := p.ctx.Err(); err != nil {
			c.err = err
			return
		}
		// Inline tasks run on the submitting goroutine, so they keep its
		// lane — correct even when that goroutine is itself a worker of an
		// outer pool (nested pools stay single-writer per lane).
		p.run(it, p.ctx, p.sc)
		return
	}
	p.tasks <- it
}

func (p *Pool[T]) worker(w int) {
	defer p.wg.Done()
	// Attribute this worker's spans to its own lane: lane 0 belongs to the
	// coordinating goroutine, worker w owns lane w+1. A tracer with fewer
	// lanes than workers yields a nil lane, which disables tracing for the
	// surplus workers rather than racing two writers on one buffer.
	sc := p.sc.OnLane(p.sc.Lane().Tracer().Lane(w + 1))
	ctx := trace.ContextWithScope(p.ctx, sc)
	for it := range p.tasks {
		if err := p.ctx.Err(); err != nil {
			it.cell.err = err
			continue
		}
		p.run(it, ctx, sc)
	}
}

// run executes one task, converting a panic into a recorded PanicError and
// cancelling the batch on any failure. Each task gets a "par.task" span on
// the running goroutine's lane, and the task context's scope is re-rooted
// under it so spans the task emits nest inside their pool slot.
func (p *Pool[T]) run(it item[T], ctx context.Context, sc trace.Scope) {
	sp := sc.Start("par.task").Int("idx", int64(it.idx))
	defer sp.End()
	defer func() {
		if r := recover(); r != nil {
			it.cell.panicked = &PanicError{Value: r, Stack: debug.Stack()}
			p.cancel()
		}
	}()
	v, err := it.fn(trace.ContextWithScope(ctx, sp.Scope()))
	if err != nil {
		it.cell.err = err
		p.fail(err)
		return
	}
	it.cell.val = v
}

// fail records the batch's first task error and cancels the rest, so Wait
// can report the root cause rather than the context.Canceled the
// cancellation itself induces in still-queued tasks.
func (p *Pool[T]) fail(err error) {
	p.failOnce.Do(func() {
		p.batchErr = err
		p.cancel()
	})
}

// Wait blocks until every submitted task has finished or been skipped and
// returns the results in submission order. If a worker panicked, Wait
// re-panics with the first PanicError in submission order. Otherwise the
// first error in submission order is returned and the results are nil —
// partial output is never exposed.
func (p *Pool[T]) Wait() ([]T, error) {
	if !p.serial {
		close(p.tasks)
		p.wg.Wait()
	}
	p.cancel()
	out := make([]T, len(p.cells))
	for _, c := range p.cells {
		if c.panicked != nil {
			panic(c.panicked)
		}
	}
	for i, c := range p.cells {
		if c.err != nil {
			if p.batchErr != nil {
				return nil, p.batchErr
			}
			return nil, c.err
		}
		out[i] = c.val
	}
	return out, nil
}

// Map evaluates f over the indices [0, n) on a pool of workers and returns
// the n results in index order. It is the package's workhorse: every
// pipeline stage reduces to "decide all items independently, merge at the
// barrier in index order".
func Map[T any](ctx context.Context, workers, n int, f func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if w := Resolve(workers); w > n {
		workers = n
		if workers < 1 {
			workers = 1
		}
	}
	p := New[T](ctx, workers)
	for i := 0; i < n; i++ {
		p.Submit(func(ctx context.Context) (T, error) { return f(ctx, i) })
	}
	return p.Wait()
}
