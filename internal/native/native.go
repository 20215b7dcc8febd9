// Package native executes the paper's supernodal forward elimination and
// back substitution as real shared-memory task parallelism: a wall-clock,
// goroutine-based engine that closes the loop between the virtual-time
// T3D simulator (package machine/core) and the hardware the reproduction
// actually runs on.
//
// The parallel structure is exactly the one the paper exploits for
// subtree-to-subcube mapping — independence of disjoint elimination-tree
// subtrees — but realized as a task DAG over supernodes instead of a
// processor mapping, with every subtree below a work cutoff run as one
// sequential task (grain.go). Forward elimination runs the tasks leaves to
// root, back substitution root to leaves, both on package taskdag's
// bounded pool of parked worker goroutines — and repeated solves on a
// warm Solver allocate nothing: fronts, the update stack, counters, and
// scratch all live in a per-solver arena recycled across calls.
//
// Memory follows the paper's forward elimination, which passes each
// supernode's update up the elimination tree as multifrontal
// factorization passes its Schur complements: a supernode is swept in its
// worker's front, its below rows wait for the parent on a stack with one
// region per task (the layout package chol's factorization uses too), and
// its triangle rows go straight into the caller's solution block, where
// back substitution reads them and every ancestor's answer back. No
// supernode keeps rows of its own across the solve (arena.go).
//
// Numerically the engine mirrors, operation for operation, the virtual
// machine's single-processor pipeline (package core with p = 1): child
// updates are accumulated into the front in ascending child order before
// the right-hand side is added, the trapezoid sweeps use the same
// reciprocal scaling and column-ascending update order, and back
// substitution reuses the simulator's per-block partial-sum grouping.
// Because every task writes only its own stack region and its own
// supernodes' rows of the solution, and reads only finished children's
// updates (forward) or ancestors' answers (backward), the solution is
// bitwise identical to the simulator's p=1 result for any worker count,
// any grain, and any task interleaving — the determinism the tests pin
// down.
package native

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/dist"
	"sptrsv/internal/rowops"
	"sptrsv/internal/sparse"
	"sptrsv/internal/taskdag"
)

// partialSumBlock is the back-substitution partial-sum block width. It
// equals the simulator's solver block size (the paper's b, 8 in
// core.DefaultOptions), which the bitwise-reproducibility guarantee needs.
const partialSumBlock = 8

// Options configure the native solver.
type Options struct {
	// Workers is the number of worker goroutines executing tasks; 0 means
	// runtime.GOMAXPROCS(0). With one worker the solve runs entirely on
	// the calling goroutine (no pool, no channels).
	Workers int
	// grain is the subtree-aggregation work cutoff in per-RHS solve
	// flops (see partition). 0, the only value other packages can set,
	// derives it; the package's tests move task boundaries with the other
	// values. It affects scheduling only: the solution is bitwise
	// identical for every value.
	grain int
	// Strategy is not read; the benchmark's next revision removes it.
	Strategy Strategy
	// Kernel is not read; the benchmark's next revision removes it.
	Kernel Kernel
	// Precision selects which value plane of the factor the kernels read
	// (see precision.go): the float64 panels (default, bitwise identical
	// to every pre-precision release) or the float32 panels, halving
	// panel memory traffic at ~κ·2⁻²⁴ factor error. The factor must
	// carry the requested plane: NewSolver builds the f32 plane on
	// demand when the f64 one is present (EnsureFloat32) and panics when
	// the requested plane cannot be had. Arithmetic is float64 either
	// way; the policy choice between the two lives in internal/prec.
	Precision Precision
	// TaskHook, when non-nil, runs at the start of every supernode
	// execution (aggregated tasks invoke it once per member supernode);
	// see TaskHook for the contract. Fault-injection tests use it to
	// force panics, errors, and stalls; it must be nil in production
	// solves.
	TaskHook TaskHook
}

// Solver is a reusable shared-memory parallel triangular solver over one
// numeric factor. The factor panels are shared read-only between workers;
// independent Solvers may run concurrently.
//
// Reuse contract: a Solver is built for reuse — repeated
// Solve/SolveCtx/SolveInto calls recycle the solver's internal arena and
// worker pool, so a warm solver allocates nothing per solve (SolveInto)
// or only the result block (SolveCtx). Solve calls from multiple
// goroutines are safe but serialized by an internal mutex (overlapping
// solves would otherwise share the arena); for solve-level parallelism
// build one Solver per goroutine.
//
// A Solver that has run a parallel solve holds its worker goroutines
// parked until Close is called; an abandoned Solver is cleaned up by a
// finalizer, so Close is an optimization, not an obligation. A server
// that builds solvers per request, however, must Close them: parked
// pools pile up until the garbage collector gets around to finalizers.
type Solver struct {
	F         *chol.Factor
	workers   int
	precision Precision
	hook      TaskHook

	// tasks is the aggregated task DAG (see grain.go).
	tasks *taskdag.Subtrees
	// updOff[s] is the row offset of supernode s's forward update in the
	// arena's update stack, updRows the stack's height in rows, and
	// maxHeight the tallest supernode — the height of a worker's front.
	updOff    []int
	updRows   int
	maxHeight int

	// bsz[s] is supernode s's backward partial-sum block width — the
	// simulator's p=1 blocking, dist.AdaptiveBlock(ns, 1, b).
	// kernelCounts is the dispatch census of one sweep at the current RHS
	// width, in the solver's precision slots (see dispatch.go), rebuilt by
	// arena.ensure when the width changes; kernelTotals accumulates
	// executed supernodes per kernel across the solver's lifetime for the
	// serving layer's metrics.
	bsz          []int
	kernelCounts KernelTasks
	kernelTotals [numKernelSlots]atomic.Int64

	arena arena

	// mu serializes solves, and with them every use of exec, against each
	// other and against Close: Close waits out an in-flight solve, and a
	// later solve observes closed and returns ErrClosed. closed is atomic
	// so the allocation-free rejection paths can read it without the lock.
	mu     sync.Mutex
	exec   *taskdag.Executor
	closed atomic.Bool

	// arenaFootprint mirrors arena.bytes for lock-free readers: it is
	// stored by arena.ensure (which runs under mu) and read by
	// ArenaBytes without taking the solve lock, so capacity accounting
	// (the matrix registry's resident-bytes budget) never blocks behind
	// an in-flight solve.
	arenaFootprint atomic.Int64

	// cur is the per-solve state the kernels read (why a Solver is not
	// safe for concurrent solves). nonFinite is raised by a backward task
	// that stores a non-finite answer.
	cur struct {
		b, x      *sparse.Block
		m         int
		nonFinite atomic.Bool
	}
}

// Stats reports one native solve: measured wall-clock time of each sweep
// plus the schedule geometry and the arena footprint.
type Stats struct {
	Workers    int
	Tasks      int // scheduler tasks per sweep, after subtree aggregation
	Supernodes int // supernodes executed per sweep (= Sym.NSuper)
	// AggregatedTasks counts tasks that execute more than one supernode —
	// the collapsed subtrees the grain controller produced.
	AggregatedTasks int
	// Strategy is always subtree; the benchmark's next revision removes it.
	Strategy Strategy
	// Levels is always 0; the benchmark's next revision removes it.
	Levels int
	// Kernel is always auto; the benchmark's next revision removes it.
	Kernel Kernel
	// Precision is the value plane the kernels read: float64 or float32
	// factor storage (arithmetic is float64 either way).
	Precision Precision
	// KernelTasks counts the supernodes dispatched to each concrete
	// kernel variant for one sweep at this solve's RHS width.
	KernelTasks KernelTasks
	Forward     time.Duration
	Backward    time.Duration
	// AllocBytes is the steady-state footprint of the solver's reusable
	// arena — update stack + worker fronts + backward scratch + dependency
	// counters — the memory a warm solver recycles instead of allocating
	// per solve.
	AllocBytes int64
}

// Total returns the combined forward+backward wall-clock time.
func (st Stats) Total() time.Duration { return st.Forward + st.Backward }

// MFLOPS returns the measured aggregate MFLOPS rate for m right-hand
// sides, using the same flop count the virtual machine charges.
func (st Stats) MFLOPS(flopsPerRHS int64, m int) float64 {
	s := st.Total().Seconds()
	if s <= 0 {
		return 0
	}
	return float64(flopsPerRHS) * float64(m) / s / 1e6
}

// NewSolver precomputes the aggregated task DAG and the update-stack
// layout for the given numeric factor; the child→parent scatter maps are
// the symbolic factor's relative indices (symbolic.Factor.Rel). A value
// swap builds a fresh NewSolver over the refactorized factor, which shares
// the old one's symbolic factor and with it those indices.
func NewSolver(f *chol.Factor, opts Options) *Solver {
	sym := f.Sym
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	requirePlane(f, opts.Precision)
	sv := &Solver{
		F:         f,
		workers:   w,
		precision: opts.Precision,
		hook:      opts.TaskHook,
		bsz:       make([]int, sym.NSuper),
		exec:      taskdag.NewExecutor(w),
	}
	for c := 0; c < sym.NSuper; c++ {
		sv.maxHeight = max(sv.maxHeight, sym.Height(c))
		sv.bsz[c] = dist.AdaptiveBlock(sym.Height(c), 1, partialSumBlock)
	}
	sv.tasks = partition(sym, opts.grain, w)
	sv.updOff, sv.updRows = sv.tasks.Stack(sym.SChildren, func(s int) int { return sym.Height(s) - sym.Width(s) })
	// The finalizer releases the parked worker pool of an abandoned
	// Solver; between sweeps the pool holds no reference back to sv, so
	// an unreachable Solver really is collected.
	runtime.SetFinalizer(sv, (*Solver).Close)
	return sv
}

// Workers returns the solver's worker-pool size.
func (sv *Solver) Workers() int { return sv.workers }

// Precision returns the value plane the solver's kernels read — the
// storage precision of the factor traffic, resolved before the solver
// was built (never a policy like "auto"; see internal/prec).
func (sv *Solver) Precision() Precision { return sv.precision }

// Tasks returns the number of scheduler tasks per sweep after subtree
// aggregation (NSuper when aggregation is disabled).
func (sv *Solver) Tasks() int { return sv.tasks.Tasks() }

// ArenaBytes returns the current footprint of the solver's reusable
// arena — 0 before the first solve, then the Stats.AllocBytes of the
// most recent width. It is safe to call concurrently with a solve and
// never blocks behind one.
func (sv *Solver) ArenaBytes() int64 { return sv.arenaFootprint.Load() }

// Close releases the solver's parked worker goroutines. It is safe to
// call concurrently with a solve: Close blocks until the in-flight solve
// drains, then shuts the pool down, and every solve that starts after
// Close returns ErrClosed. Close is idempotent, and an abandoned Solver
// is closed by a finalizer, so calling it is optional — but a server
// constructing solvers per request must call it or parked pools
// accumulate until the next GC cycle.
func (sv *Solver) Close() {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed.Swap(true) {
		return
	}
	sv.exec.Close()
}

// Solve performs the complete forward elimination and back substitution
// for the (postordered) right-hand-side block b, returning the solution X
// with A·X = B and the measured wall-clock statistics. b is not modified.
//
// Solve is the legacy never-fails entry point: it panics on any error
// (mismatched RHS, numerical breakdown, injected fault). Servers and
// anything with a deadline should call SolveCtx instead.
func (sv *Solver) Solve(b *sparse.Block) (*sparse.Block, Stats) {
	x, stats, err := sv.SolveCtx(context.Background(), b)
	if err != nil {
		panic(err)
	}
	return x, stats
}

// SolveCtx is the fault-tolerant solve: forward elimination and back
// substitution under ctx, returning a freshly allocated solution, the
// wall-clock statistics gathered so far, and an error instead of hanging
// or lying. It is SolveInto plus one result-block allocation; see
// SolveInto for the error contract and the zero-allocation path.
//
// The right-hand side is validated (and the closed flag checked) before
// the N×M result block is allocated, so malformed or post-Close requests
// are rejected without touching the heap — a server under load sheds bad
// requests for free.
func (sv *Solver) SolveCtx(ctx context.Context, b *sparse.Block) (*sparse.Block, Stats, error) {
	if err := sv.checkRHS(b); err != nil {
		return nil, sv.baseStats(), err
	}
	x := sparse.NewBlock(sv.F.Sym.N, b.M)
	stats, err := sv.SolveInto(ctx, b, x)
	if err != nil {
		return nil, stats, err
	}
	return x, stats, nil
}

// checkRHS validates the right-hand-side block and the solver lifecycle
// without allocating anything proportional to the problem: the checks a
// request must pass before any result storage is committed.
func (sv *Solver) checkRHS(b *sparse.Block) error {
	if b.N != sv.F.Sym.N {
		return &DimensionError{What: "RHS rows", Got: b.N, Want: sv.F.Sym.N}
	}
	if b.M < 1 {
		return &DimensionError{What: "RHS columns", Got: b.M, Want: 1}
	}
	if sv.closed.Load() {
		return ErrClosed
	}
	return nil
}

// baseStats returns the schedule-geometry statistics every solve reports,
// before any sweep has run: only what is immutable after NewSolver, so a
// request rejected before it takes the solve lock may carry them.
// KernelTasks and AllocBytes change with the RHS width under that lock and
// are filled in by SolveInto once it holds it.
func (sv *Solver) baseStats() Stats {
	return Stats{
		Workers:         sv.workers,
		Tasks:           sv.tasks.Tasks(),
		Supernodes:      sv.F.Sym.NSuper,
		AggregatedTasks: sv.tasks.Aggregated,
		Precision:       sv.precision,
	}
}

// SolveInto is the allocation-free solve: forward elimination and back
// substitution under ctx, writing the solution into the caller-provided
// x (which must be N×M like b). x may be b itself: a solve in place
// overwrites the right-hand side with the solution, because each
// supernode reads its rows of b before it stores its rows of the forward
// result y into x. On a warm Solver — same RHS width as the previous
// solve — SolveInto performs zero allocations: the worker fronts, update
// stack, dependency counters, and backward scratch all come from the
// solver's arena, and the worker pool persists across calls.
//
// Error contract:
//   - *BreakdownError: a zero/non-finite pivot in either sweep, or a
//     non-finite solution entry, named as a serial scan of x names the
//     lowest one.
//   - *CancelledError: ctx was cancelled or its deadline expired before
//     every task completed; errors.Is sees the context cause through it.
//   - *TaskPanicError: a supernode execution (or hook) panicked; the
//     scheduler recovered it — naming the supernode even inside an
//     aggregated subtree task — and unwound instead of deadlocking.
//   - *DimensionError: the RHS or solution block shape does not match
//     the factor, rejected before any state is touched.
//   - ErrClosed: the Solver was closed; every post-Close solve returns
//     exactly this error.
//
// On any error the contents of x (and of b, when x is b) are
// unspecified. On the success path
// SolveInto performs exactly the same floating-point operations in the
// same order as the simulator's p=1 execution for every worker count and
// grain value — the guards only read values the sweeps were already
// touching.
func (sv *Solver) SolveInto(ctx context.Context, b, x *sparse.Block) (Stats, error) {
	sym := sv.F.Sym
	stats := sv.baseStats()
	if err := sv.checkRHS(b); err != nil {
		return stats, err
	}
	if x.N != sym.N {
		return stats, &DimensionError{What: "solution rows", Got: x.N, Want: sym.N}
	}
	if x.M != b.M {
		return stats, &DimensionError{What: "solution columns", Got: x.M, Want: b.M}
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed.Load() {
		// Close won the lock between validation and here; the pool is
		// gone, so refuse deterministically rather than wedge a sweep.
		return stats, ErrClosed
	}
	sv.arena.ensure(sv, b.M)
	stats.AllocBytes = sv.arena.bytes
	stats.KernelTasks = sv.kernelCounts
	sv.accountKernels()
	sv.cur.b, sv.cur.x, sv.cur.m = b, x, b.M
	sv.cur.nonFinite.Store(false)
	defer func() { sv.cur.b, sv.cur.x = nil, nil }()

	t0 := time.Now()
	err := sv.runSweep(ctx, ForwardPhase)
	stats.Forward = time.Since(t0)
	if err != nil {
		return stats, normalizeCancel(err)
	}
	t0 = time.Now()
	err = sv.runSweep(ctx, BackwardPhase)
	stats.Backward = time.Since(t0)
	if err != nil {
		return stats, normalizeCancel(err)
	}
	// Breakdown that slips past the pivot guards (overflow, a poisoned
	// off-diagonal panel entry) must never be returned with a success
	// status. Every backward task checked the answers it stored; only when
	// one found a non-finite entry does the serial scan run, to name the
	// lowest.
	if sv.cur.nonFinite.Load() {
		return stats, sv.F.ScanFinite(x)
	}
	return stats, nil
}

// runSweep executes one phase of the current solve on the executor: the
// forward sweep over the task forest's Up graph, the backward sweep over
// its Down graph. When a hook is installed the sweep context is made
// cancellable so a blocked hook is released as soon as any sibling task
// fails.
func (sv *Solver) runSweep(ctx context.Context, phase TaskPhase) error {
	var cancel context.CancelFunc
	if sv.hook != nil {
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	g, r := &sv.tasks.Up, taskdag.Runner((*forwardSweep)(sv))
	if phase == BackwardPhase {
		g, r = &sv.tasks.Down, (*backwardSweep)(sv)
	}
	return sv.exec.Run(ctx, cancel, g, sv.arena.deps, r)
}

// forwardSweep and backwardSweep are the solver as the executor's Runner
// for each sweep. A task runs its member supernodes in postorder forward
// and in reverse postorder backward — exactly the order a lone processor
// would use on the collapsed subtree.
type (
	forwardSweep  Solver
	backwardSweep Solver
)

func (fs *forwardSweep) RunTask(ctx context.Context, worker, task int) error {
	sv := (*Solver)(fs)
	for _, s := range sv.tasks.Members(task) {
		if err := sv.execSupernode(ctx, ForwardPhase, worker, s); err != nil {
			return err
		}
	}
	return nil
}

func (bs *backwardSweep) RunTask(ctx context.Context, worker, task int) error {
	sv := (*Solver)(bs)
	members := sv.tasks.Members(sv.tasks.Tasks() - 1 - task)
	for i := len(members) - 1; i >= 0; i-- {
		if err := sv.execSupernode(ctx, BackwardPhase, worker, members[i]); err != nil {
			return err
		}
	}
	return nil
}

// execSupernode runs one supernode's hook and numeric kernel with its own
// panic recovery, so a panic anywhere inside an aggregated subtree is
// attributed to the exact supernode that raised it.
func (sv *Solver) execSupernode(ctx context.Context, phase TaskPhase, worker, s int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &TaskPanicError{Phase: phase, Task: s, Value: r}
		}
	}()
	if sv.hook != nil {
		if herr := sv.hook(ctx, phase, s); herr != nil {
			return herr
		}
	}
	if sv.precision == PrecisionFloat32 {
		return runKernel(sv, sv.F.Panels32, &rowops.F32, phase, s, worker)
	}
	return runKernel(sv, sv.F.Panels, &rowops.F64, phase, s, worker)
}
