package native

import (
	"context"
	"sync"
	"sync/atomic"
)

// This file is the execution layer: a persistent bounded worker pool that
// runs the aggregated task DAG with zero steady-state allocation, plus a
// pure sequential path used when one worker (or one task) makes a pool
// pointless.
//
// The pool is spawned lazily at the first parallel solve and parked
// between solves on its work channel, so repeated solves reuse the same
// goroutines, the same channels, and the same counters — nothing on the
// hot path allocates. Tasks are enqueued exactly once, by the worker that
// drops the task's dependency counter to zero; the atomic decrement plus
// the channel hand-off give the happens-before edge from every
// predecessor's writes to the successor's reads, which is what makes the
// per-supernode buffers race-free under any interleaving.
//
// Failure semantics (unchanged from the per-solve pool this replaces): a
// sweep either completes every task and returns nil, or returns the
// first error promptly — it never hangs. A task panic is recovered into a
// *TaskPanicError naming the supernode (not the aggregated task) that
// panicked. The first task error marks the sweep failed, which stops
// queued tasks from starting and — when a hook-visible cancellable
// context exists — unblocks any hook waiting on ctx.Done(). Caller
// cancellation is reported as *CancelledError wrapping the context cause.
// Tasks already executing are allowed to finish (a goroutine cannot be
// killed); their writes stay confined to the solver's private arena.
//
// Sweep reuse across solves is made safe by an epoch stamp on every
// queued item: a worker that drains a stale item from an aborted earlier
// sweep discards it without touching the current sweep's state. A worker
// only reads the per-sweep fields (run, ctx, deps, edges) after
// registering as active and re-checking the failed flag and epoch — at
// that point the coordinator is provably inside this sweep's wait loop,
// so those plain fields are stable.

// taskRunner executes one task of the current sweep. *Solver is the only
// implementation; the indirection lets the pool drop its reference to the
// solver between sweeps (so an abandoned Solver can be finalized).
type taskRunner interface {
	runTask(ctx context.Context, phase TaskPhase, worker, task int) error
}

type pool struct {
	work chan uint64   // epoch<<32 | task; buffered to the DAG size
	wake chan struct{} // worker → coordinator nudge, capacity 1
	quit chan struct{} // closed by Solver.Close / the finalizer

	mu       sync.Mutex
	firstErr error

	epoch  atomic.Uint32
	failed atomic.Bool
	active atomic.Int32
	done   atomic.Int32

	// Per-sweep state, written by the coordinator before it publishes any
	// work for the new epoch and cleared when the sweep ends.
	total   int32
	phase   TaskPhase
	run     taskRunner
	ctx     context.Context
	cancel  context.CancelFunc
	deps    []int32
	succOne []int   // forward sweep: parent[t] (-1 = none)
	succAll [][]int // backward sweep: children[t]
}

func newPool(workers, nTasks int) *pool {
	p := &pool{
		work: make(chan uint64, nTasks),
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
	}
	if workers > nTasks {
		workers = nTasks
	}
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

func (p *pool) worker(w int) {
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
// across a sweep boundary either sees the old sweep's failed flag or the
// new sweep's epoch, and discards the item before touching any per-sweep
// field the coordinator may be rewriting.
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
	if err := p.run.runTask(p.ctx, p.phase, w, t); err != nil {
		p.fail(err)
	} else {
		if p.succOne != nil {
			if s := p.succOne[t]; s >= 0 && atomic.AddInt32(&p.deps[s], -1) == 0 {
				p.work <- uint64(ep)<<32 | uint64(uint32(s))
			}
		} else {
			for _, s := range p.succAll[t] {
				if atomic.AddInt32(&p.deps[s], -1) == 0 {
					p.work <- uint64(ep)<<32 | uint64(uint32(s))
				}
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

// fail records the sweep's first error and cancels the hook-visible
// context (when one exists) so blocked hooks unwind promptly.
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

// sweep runs one DAG traversal on the pool and blocks until every task
// completed, the first error surfaced, or ctx was cancelled. deps must
// hold each task's predecessor count, one entry per task;
// succOne/succAll describe the edges (exactly one of them non-nil); ctx is the hook-visible context, already
// derived cancellable (with cancel non-nil) when a hook is installed.
func (p *pool) sweep(ctx context.Context, cancel context.CancelFunc, phase TaskPhase, run taskRunner, deps []int32, sources []int, succOne []int, succAll [][]int) error {
	if err := ctx.Err(); err != nil {
		return &CancelledError{Cause: context.Cause(ctx)}
	}
	// Drain leftovers from an aborted earlier sweep. No producers exist
	// between sweeps, and items a worker grabbed instead are discarded by
	// its epoch check.
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
	p.total = int32(len(deps))
	p.phase = phase
	p.run = run
	p.ctx = ctx
	p.cancel = cancel
	p.deps = deps
	p.succOne, p.succAll = succOne, succAll
	p.failed.Store(false)
	for _, s := range sources {
		p.work <- uint64(ep)<<32 | uint64(uint32(s))
	}
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
		} else if p.done.Load() == p.total && p.active.Load() == 0 {
			break
		}
	}
	p.mu.Lock()
	err := p.firstErr
	p.mu.Unlock()
	// Drop per-sweep references so the parked pool pins neither the
	// solver nor the caller's context between solves.
	p.run = nil
	p.ctx = nil
	p.cancel = nil
	p.deps = nil
	p.succOne, p.succAll = nil, nil
	if err != nil {
		return err
	}
	if p.done.Load() != p.total {
		return &CancelledError{Cause: context.Cause(ctx)}
	}
	return nil
}

// runSeq is the sequential execution path: tasks in topological order on
// the caller's goroutine — no channels, no atomics, no goroutines. Task
// indices are topologically sorted by construction, so ascending order is
// a valid forward schedule and descending order a valid backward one.
func (sv *Solver) runSeq(ctx context.Context, phase TaskPhase) error {
	g := sv.graph
	if phase == ForwardPhase {
		for t := 0; t < g.nTasks; t++ {
			if err := ctx.Err(); err != nil {
				return &CancelledError{Cause: context.Cause(ctx)}
			}
			if err := sv.runTask(ctx, phase, 0, t); err != nil {
				return err
			}
		}
		return nil
	}
	for t := g.nTasks - 1; t >= 0; t-- {
		if err := ctx.Err(); err != nil {
			return &CancelledError{Cause: context.Cause(ctx)}
		}
		if err := sv.runTask(ctx, phase, 0, t); err != nil {
			return err
		}
	}
	return nil
}
