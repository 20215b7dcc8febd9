package taskdag

import (
	"context"
	"sync"
	"sync/atomic"
)

// The executor runs a Graph one of two ways. With one worker, or one task,
// the tasks run inline in ascending order on the caller's goroutine — no
// goroutines, no channels, no atomics. Otherwise a pool of workers,
// spawned at the first such run and parked between runs, runs them with
// the same goroutines, channels and counters every time, so a warm run
// allocates nothing. A task is queued once, by the worker that drops its
// dependency counter to zero; the atomic decrement plus the channel
// hand-off order every predecessor's writes before the successor's reads.
//
// A run completes every task and returns nil, or returns the first error
// promptly — it never hangs. The first error stops queued tasks from
// starting and calls the run's cancel function, so a task blocked on the
// run's context unwinds; tasks already executing finish. A task must not
// panic: the runner recovers its own panics into errors.
//
// Every queued item carries the run's epoch, and a worker discards stale
// items of an aborted earlier run. A worker reads the per-run fields only
// after registering as active and re-checking the failed flag and the
// epoch: the coordinator is then provably inside this run's wait loop,
// so those plain fields are stable.

// Runner executes one task of a run. worker is in [0, workers) and names
// the goroutine running the task (0 on the inline path), so a runner can
// index per-worker scratch.
type Runner interface {
	RunTask(ctx context.Context, worker, task int) error
}

// CancelledError reports a run stopped by its context before every task
// completed. Cause is the context's cause; Unwrap yields it.
type CancelledError struct {
	Cause error
}

func (e *CancelledError) Error() string {
	if e.Cause != nil {
		return "taskdag: run cancelled: " + e.Cause.Error()
	}
	return "taskdag: run cancelled"
}

func (e *CancelledError) Unwrap() error { return e.Cause }

// Executor runs graphs on up to a fixed number of workers. It is not safe
// for concurrent use: the caller serializes Run and Close. The pool holds
// no reference to a runner between runs, so the owner of an Executor that
// is dropped without Close can still be reclaimed by a finalizer that
// calls it.
type Executor struct {
	workers int
	p       *pool
}

// NewExecutor returns an executor for the given worker count; no
// goroutine starts until the first run that needs the pool.
func NewExecutor(workers int) *Executor { return &Executor{workers: workers} }

// Started reports whether the worker pool is running.
func (e *Executor) Started() bool { return e.p != nil }

// Close stops the parked workers and waits for them to exit; a later
// Run would start new ones.
func (e *Executor) Close() {
	if e.p != nil {
		close(e.p.quit)
		e.p.exited.Wait()
		e.p = nil
	}
}

// Run executes every task of g once, each after all its predecessors, and
// blocks until every task completed (nil), the first task error surfaced
// (that error), or ctx was cancelled (*CancelledError). deps is scratch of
// at least g.Tasks() counters, which Run overwrites. cancel, when non-nil,
// is called at the first failure; it should cancel the ctx tasks see.
func (e *Executor) Run(ctx context.Context, cancel context.CancelFunc, g *Graph, deps []int32, r Runner) error {
	n := g.Tasks()
	if e.workers <= 1 || n <= 1 {
		for t := 0; t < n; t++ {
			if ctx.Err() != nil {
				return &CancelledError{Cause: context.Cause(ctx)}
			}
			if err := r.RunTask(ctx, 0, t); err != nil {
				return err
			}
		}
		return nil
	}
	if e.p != nil && cap(e.p.work) < n {
		e.Close()
	}
	if e.p == nil {
		e.p = newPool(min(e.workers, n), n)
	}
	copy(deps, g.Indeg)
	return e.p.run(ctx, cancel, g, deps[:n], r)
}

type pool struct {
	work chan uint64   // epoch<<32 | task; a task is queued once, so a graph-sized buffer never blocks
	wake chan struct{} // worker → coordinator nudge, capacity 1
	quit chan struct{} // closed by Executor.Close

	exited sync.WaitGroup // one count per worker goroutine still running

	mu       sync.Mutex
	firstErr error

	epoch  atomic.Uint32
	failed atomic.Bool
	active atomic.Int32
	done   atomic.Int32

	// Per-run state, written by the coordinator before it queues any work
	// for the new epoch and cleared when the run ends.
	r      Runner
	ctx    context.Context
	cancel context.CancelFunc
	deps   []int32
	g      *Graph
}

func newPool(workers, capacity int) *pool {
	p := &pool{
		work: make(chan uint64, capacity),
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
	}
	p.exited.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

func (p *pool) worker(w int) {
	defer p.exited.Done()
	for {
		select {
		case <-p.quit:
			return
		case v := <-p.work:
			p.execute(w, v)
		}
	}
}

// execute runs one queued item. The failed-then-epoch re-check after
// registering as active is load-bearing: a stale worker that held an item
// across a run boundary either sees the old run's failed flag or the new
// run's epoch, and discards the item before touching any per-run field.
func (p *pool) execute(w int, v uint64) {
	ep := uint32(v >> 32)
	t := int(uint32(v))
	if ep != p.epoch.Load() {
		return
	}
	p.active.Add(1)
	if p.failed.Load() || ep != p.epoch.Load() {
		p.active.Add(-1)
		p.signal()
		return
	}
	if err := p.r.RunTask(p.ctx, w, t); err != nil {
		p.fail(err)
	} else {
		g := p.g
		for _, s := range g.Succ[g.Off[t]:g.Off[t+1]] {
			if atomic.AddInt32(&p.deps[s], -1) == 0 {
				p.work <- uint64(ep)<<32 | uint64(uint32(s))
			}
		}
		p.done.Add(1)
	}
	p.active.Add(-1)
	p.signal()
}

// signal nudges the coordinator; a full wake channel already guarantees a
// re-check after this worker's state updates, so the send never blocks.
func (p *pool) signal() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// fail records the run's first error and calls the run's cancel function.
func (p *pool) fail(err error) {
	p.mu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
		if p.cancel != nil {
			p.cancel()
		}
	}
	p.mu.Unlock()
	p.failed.Store(true)
}

// run is one traversal of g on the pool; deps holds g's in-degrees.
func (p *pool) run(ctx context.Context, cancel context.CancelFunc, g *Graph, deps []int32, r Runner) error {
	if ctx.Err() != nil {
		return &CancelledError{Cause: context.Cause(ctx)}
	}
	// Drain leftovers of an aborted earlier run: no producers exist between
	// runs, and items a worker grabbed instead fail its epoch check.
drain:
	for {
		select {
		case <-p.work:
		default:
			break drain
		}
	}
	select {
	case <-p.wake:
	default:
	}
	ep := p.epoch.Add(1)
	p.done.Store(0)
	p.mu.Lock()
	p.firstErr = nil
	p.mu.Unlock()
	p.r, p.ctx, p.cancel, p.deps, p.g = r, ctx, cancel, deps, g
	p.failed.Store(false)
	for _, s := range g.Sources {
		p.work <- uint64(ep)<<32 | uint64(uint32(s))
	}
	total := int32(len(deps))
	ctxDone := ctx.Done()
	for {
		select {
		case <-p.wake:
		case <-ctxDone:
			p.fail(&CancelledError{Cause: context.Cause(ctx)})
			ctxDone = nil // stop re-selecting; workers signal the unwind
		}
		if p.failed.Load() {
			if p.active.Load() == 0 {
				break
			}
		} else if p.done.Load() == total && p.active.Load() == 0 {
			break
		}
	}
	p.mu.Lock()
	err := p.firstErr
	p.mu.Unlock()
	// Drop per-run references so the parked pool pins neither the runner
	// nor the caller's context between runs.
	p.r, p.ctx, p.cancel, p.deps, p.g = nil, nil, nil, nil, nil
	if err != nil {
		return err
	}
	if p.done.Load() != total {
		return &CancelledError{Cause: context.Cause(ctx)}
	}
	return nil
}
