// This file is the server core: admission, batch formation, the
// coalesced sweep, and the split-to-singles failure path. The package
// contract (bitwise identity of batched answers, degradation semantics)
// is documented in doc.go.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/ladder"
	"sptrsv/internal/native"
	"sptrsv/internal/prec"
	"sptrsv/internal/sparse"
)

// Config tunes a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// Workers is the underlying native solver's worker count (see
	// native.Options); the solver derives its task grain from it.
	Workers int
	// Strategy is not read; the benchmark's next revision removes it.
	Strategy native.Strategy
	// Kernel is not read; the benchmark's next revision removes it.
	Kernel native.Kernel
	// Precision is the per-matrix precision policy (see prec.Policy). The
	// zero value stores and sweeps the factor in float64 — exactly the
	// pre-precision behaviour. prec.PolicyMixed demotes the factor to
	// float32 storage (half the resident bytes and sweep traffic) and
	// recovers float64 residual accuracy via iterative refinement, with a
	// lazily built float64 fallback as the safety net; prec.PolicyAuto
	// decides per matrix from a condition estimate at build time. This
	// can change which degradation rung answers (ladder.PathMixedRefine,
	// ladder.PathFloat64Fallback), but never the residual guarantee: every
	// answer meets Tol or the request errors.
	Precision prec.Policy
	// MaxBatch bounds how many single-RHS requests one sweep may carry; 0
	// means 30, the paper's measured amortization sweet spot (§5).
	// MaxBatch 1 disables coalescing (every request solves alone).
	MaxBatch int
	// Linger is how long batch formation waits, measured from the first
	// request of the batch, for more requests to coalesce before sweeping
	// a partial batch; 0 means 200µs. The window closes early when the
	// batch is full, and also when it already holds every in-flight
	// request — once no admitted request remains outside the batch,
	// lingering longer can only add latency, never width.
	Linger time.Duration
	// QueueDepth bounds the admission queue; a request arriving while
	// QueueDepth requests wait is rejected with *OverloadError. 0 means
	// 4×MaxBatch.
	QueueDepth int
	// Tol is the relative-residual acceptance threshold of the
	// degradation ladder; 0 means the experiments' default of 1e-10.
	Tol float64
	// TaskHook is passed to the native solver. It exists for fault
	// injection and tracing (package faultinject); production servers
	// leave it nil.
	TaskHook native.TaskHook
}

func (c *Config) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 30
	}
	if c.Linger <= 0 {
		c.Linger = 200 * time.Microsecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.Tol <= 0 {
		c.Tol = 1e-10
	}
}

// ErrServerClosed is returned by Solve on a closed server, and delivered
// to requests still queued when Close ran.
var ErrServerClosed = errors.New("serve: server is closed")

// OverloadError is the typed admission-control rejection: the queue was
// full when the request arrived. Callers should back off or shed load;
// the request consumed no solver resources.
type OverloadError struct {
	QueueDepth int // the admission limit that was hit
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded: admission queue full (%d waiting)", e.QueueDepth)
}

// result is one request's reply.
type result struct {
	x    []float64
	path ladder.Path
	err  error
}

// request is one admitted single-RHS solve.
type request struct {
	ctx  context.Context
	rhs  []float64
	enq  time.Time
	done chan result // buffered 1: the batcher never blocks on a reply
}

// batchBlocks is the reusable gather, solution and residual storage for
// one batch width. Widths repeat heavily under steady load (mostly
// MaxBatch), so caching per width keeps the steady-state gather and
// verify path allocation-free and lets the solver arena stay warm.
type batchBlocks struct {
	b  *sparse.Block
	ws ladder.Scratch
}

// Server owns a warm native solver for one factor and serves coalesced
// single-RHS solve requests against it. Construct with New, submit with
// Solve from any number of goroutines, observe with Snapshot, shut down
// with Close.
type Server struct {
	a   *sparse.SymCSC // the matrix f factors; the ladder verifies against it
	cfg Config
	sv  *native.Solver

	// f is the factor the server actually serves — under a resolved mixed
	// precision policy it is the demoted float32-plane factor (the
	// resident-bytes win), and it is what a registry must keep for
	// refactorization. precision is the resolved storage precision; guard
	// is the lazy float64 safety net, nil unless precision is float32.
	// rungs is the degradation ladder every request climbs: rung one at
	// the coalesced width, the whole list per request after a split.
	f         *chol.Factor
	precision native.Precision
	guard     *prec.Guard
	rungs     []ladder.Rung

	queue chan *request
	stop  chan struct{}
	wg    sync.WaitGroup

	mu        sync.RWMutex // guards closed against racing admissions
	closed    bool
	closeOnce sync.Once

	// inflight counts admitted requests whose Solve call has not
	// returned yet — incremented before the enqueue, decremented by
	// Solve on every return path. The batcher uses it to stop lingering
	// as soon as the batch holds every in-flight request (see collect).
	// Decrementing on the client side (not at reply time) matters: a
	// client that has been handed a reply but not yet consumed it still
	// counts, so a closed-loop client about to resubmit holds the next
	// window open instead of being served solo.
	inflight atomic.Int64

	met metrics

	// batcher-owned state, touched only by the batcher goroutine.
	blocks  map[int]*batchBlocks
	scratch []*request
}

// New starts a server over the permuted matrix a and its numeric factor
// f (whose Sym is a's symbolic analysis). The server owns the native
// solver it builds — Close releases it. Under a mixed precision policy
// the passed factor is demoted to its float32 plane (callers should drop
// their own reference and use Factor if they need the served one); pass
// f with the float64 plane intact so PolicyAuto's condition estimate can
// solve through it.
func New(a *sparse.SymCSC, f *chol.Factor, cfg Config) *Server {
	cfg.fill()
	// Resolve the policy while f still carries the float64 plane: a
	// mixed server holds only the float32 one.
	return start(a, f, cfg, prec.Resolve(cfg.Precision, a, f))
}

// NewLike starts a server over a refactorized matrix — new numeric
// values, same symbolic structure — with the template server's
// configuration and the precision it resolved at ingest (no second
// condition estimate); a must be the matrix the factor was refactorized
// from (the degradation ladder verifies residuals against it). The
// template keeps serving untouched: this is the hot-swap constructor. Its
// solver is a fresh native.NewSolver, cheap because the relative indices
// live in the shared symbolic factor.
func NewLike(a *sparse.SymCSC, f *chol.Factor, like *Server) *Server {
	return start(a, f, like.cfg, like.precision)
}

// start is the shared constructor tail. Under float32 it demotes f —
// also on a swap, where Refactorize rebuilt both planes — and gives the
// server its own guard (a template's fallback holds stale values).
func start(a *sparse.SymCSC, f *chol.Factor, cfg Config, precision native.Precision) *Server {
	opts := native.Options{Workers: cfg.Workers, TaskHook: cfg.TaskHook, Precision: precision}
	if precision == native.PrecisionFloat32 {
		f = f.Demote()
	}
	sv := native.NewSolver(f, opts)
	s := &Server{
		a:         a,
		cfg:       cfg,
		sv:        sv,
		f:         f,
		precision: precision,
		queue:     make(chan *request, cfg.QueueDepth),
		stop:      make(chan struct{}),
		blocks:    make(map[int]*batchBlocks),
		scratch:   make([]*request, 0, cfg.MaxBatch),
	}
	if precision == native.PrecisionFloat32 {
		s.guard = prec.NewGuard(a, f.Sym, opts)
		s.rungs = s.guard.Rungs(sv)
	} else {
		s.rungs = ladder.Float64(sv)
	}
	s.wg.Add(1)
	go s.batcher()
	return s
}

// Solver exposes the server's warm solver for diagnostics (worker count,
// task counts). Solving through it directly bypasses batching and
// accounting; use Solve.
func (s *Server) Solver() *native.Solver { return s.sv }

// Matrix returns the matrix the server solves: the one its factor
// factors and its degradation ladder verifies residuals against.
func (s *Server) Matrix() *sparse.SymCSC { return s.a }

// Factor returns the factor the server serves — under a mixed precision
// policy the demoted float32-plane factor. A value update refactorizes
// this factor, not the one passed to New, so it rebuilds the plane set
// actually in service.
func (s *Server) Factor() *chol.Factor { return s.f }

// FactorBytes returns the resident value bytes of the served factor:
// 8·nnz(L) for float64 servers, 4·nnz(L) for mixed ones.
func (s *Server) FactorBytes() int64 { return s.f.ValueBytes() }

// Precision returns the resolved storage precision — after PolicyAuto's
// build-time decision, so an operator can see which way "auto" went.
func (s *Server) Precision() native.Precision { return s.precision }

// FallbackBytes returns the resident bytes of the precision guard's
// lazily built float64 fallback factor — 0 for float64 servers and for
// mixed servers that never hit refinement stagnation.
func (s *Server) FallbackBytes() int64 {
	if s.guard == nil {
		return 0
	}
	return s.guard.ExtraBytes()
}

// Solve submits one right-hand side (length N, the matrix order) and
// blocks until the answer, an error, or ctx ends. The returned slice is
// owned by the caller. Error taxonomy:
//   - *OverloadError: rejected at admission, nothing was queued.
//   - *native.CancelledError: ctx was cancelled or its deadline expired
//     (errors.Is sees the context cause through it).
//   - ErrServerClosed: the server was closed before or while handling it.
//   - anything else: the degradation ladder was exhausted for this RHS.
func (s *Server) Solve(ctx context.Context, rhs []float64) ([]float64, error) {
	if len(rhs) != s.a.N {
		s.met.rejectedInvalid.Add(1)
		return nil, &native.DimensionError{What: "RHS rows", Got: len(rhs), Want: s.a.N}
	}
	req := &request{ctx: ctx, rhs: rhs, enq: time.Now(), done: make(chan result, 1)}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrServerClosed
	}
	// Counted before the enqueue so the batcher never observes a queued
	// request that is missing from the in-flight gauge.
	s.inflight.Add(1)
	select {
	case s.queue <- req:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.inflight.Add(-1)
		s.met.rejectedOverload.Add(1)
		return nil, &OverloadError{QueueDepth: cap(s.queue)}
	}
	s.met.accepted.Add(1)
	defer s.inflight.Add(-1)
	select {
	case r := <-req.done:
		s.met.observeLatency(time.Since(req.enq))
		s.account(r.err, r.path)
		return r.x, r.err
	case <-ctx.Done():
		// The batcher may still solve this request; its reply lands in
		// the buffered channel and is dropped.
		s.met.observeLatency(time.Since(req.enq))
		s.met.cancelled.Add(1)
		return nil, &native.CancelledError{Cause: context.Cause(ctx)}
	}
}

// account attributes one completed request to its outcome counter.
func (s *Server) account(err error, path ladder.Path) {
	switch {
	case err == nil:
		switch path {
		case ladder.PathSequentialRefine:
			s.met.pathSeqRefine.Add(1)
		case ladder.PathMixedRefine:
			s.met.pathMixedRefine.Add(1)
		case ladder.PathFloat64Fallback:
			s.met.pathF64Fallback.Add(1)
		default:
			s.met.pathNative.Add(1)
		}
	case isCancelled(err):
		s.met.cancelled.Add(1)
	default:
		s.met.failed.Add(1)
	}
}

func isCancelled(err error) bool {
	var ce *native.CancelledError
	return errors.As(err, &ce)
}

// Close stops admission, fails still-queued requests with
// ErrServerClosed, waits for the in-flight batch to finish, and releases
// the warm solver. It is idempotent and safe to call concurrently with
// Solve.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		// No admission can be in flight past this point: every Solve
		// either saw closed under the read lock or finished its enqueue
		// before we took the write lock — so the drain below is complete.
		close(s.stop)
		s.wg.Wait()
		s.sv.Close()
		if s.guard != nil {
			s.guard.Close()
		}
	})
	s.wg.Wait() // concurrent second Close blocks until shutdown finished
}

// batcher is the single goroutine that forms and serves batches.
func (s *Server) batcher() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			s.drain()
			return
		case req := <-s.queue:
			s.serveBatch(s.collect(req))
		}
	}
}

// reply hands one result back. Every admitted request gets exactly one
// reply (the done channel is buffered, so an abandoned cancelled
// request never blocks the batcher). The in-flight gauge is not touched
// here — the requester's Solve decrements it when it returns.
func (s *Server) reply(req *request, res result) {
	req.done <- res
}

// drain replies ErrServerClosed to everything still queued at shutdown.
func (s *Server) drain() {
	for {
		select {
		case req := <-s.queue:
			s.reply(req, result{err: ErrServerClosed})
		default:
			return
		}
	}
}

// collect forms one batch: the first request opens a linger window of
// cfg.Linger; requests arriving inside it join until the batch is full.
// Two conditions close the window early. A full batch, obviously. And a
// batch that already holds every in-flight request: when the gauge
// equals the batch width, every client engaged with the server is
// already in this batch, so lingering longer can only add latency,
// never width. (A request mid-admission is counted before it is
// queued, and a client still digesting its previous reply is counted
// until its Solve returns — so the check never closes the window on a
// request that is about to arrive.) Under saturation the linger
// therefore costs nothing; a lone client is served back-to-back with
// no linger at all.
func (s *Server) collect(first *request) []*request {
	batch := append(s.scratch[:0], first)
	if s.cfg.MaxBatch <= 1 {
		return batch
	}
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for len(batch) < s.cfg.MaxBatch {
		if int64(len(batch)) >= s.inflight.Load() {
			return batch
		}
		if timer == nil {
			timer = time.NewTimer(s.cfg.Linger)
		}
		select {
		case req := <-s.queue:
			batch = append(batch, req)
		case <-timer.C:
			return batch
		case <-s.stop:
			return batch // serve what we have; the main loop will drain
		}
	}
	return batch
}

// serveBatch serves one batch: gather → rung one of the ladder at the
// coalesced width (one warm native sweep, verified — and on a mixed
// server refined — in the width's cached blocks) → scatter; on any
// failure, split back into singles and climb the whole ladder per
// request.
func (s *Server) serveBatch(batch []*request) {
	live := batch[:0]
	for _, req := range batch {
		if req.ctx.Err() != nil {
			// Cancelled while queued: don't spend sweep width on it.
			s.reply(req, result{err: &native.CancelledError{Cause: context.Cause(req.ctx)}})
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	m := len(live)
	n := s.a.N
	s.met.observeBatch(m, len(s.queue))
	blk := s.blocksFor(m)
	for j, req := range live {
		for i, v := range req.rhs {
			blk.b.Data[i*m+j] = v
		}
	}
	bctx, cancel := batchContext(live)
	res, err := s.climb(bctx, s.rungs[:1], blk.b, &blk.ws)
	if cancel != nil {
		cancel()
	}
	if err == nil {
		for j, req := range live {
			x := make([]float64, n)
			for i := range x {
				x[i] = res.X.Data[i*m+j]
			}
			s.reply(req, result{x: x, path: res.Path})
		}
		return
	}
	// The coalesced sweep failed — breakdown, task panic, deadline, or a
	// residual miss. One bad right-hand side must not sink its
	// batchmates: retry each request alone through the full degradation
	// ladder under its own context. (Post-split solves resize the arena
	// to width 1 and back; that churn is confined to the failure path.)
	s.met.batchSplits.Add(1)
	for _, req := range live {
		if req.ctx.Err() != nil {
			s.reply(req, result{err: &native.CancelledError{Cause: context.Cause(req.ctx)}})
			continue
		}
		// A nil scratch makes the ladder allocate the solution (never
		// aliasing req.rhs), so its backing vector goes to the caller.
		res, err := s.climb(req.ctx, s.rungs, &sparse.Block{N: n, M: 1, Data: req.rhs}, nil)
		if err != nil {
			s.reply(req, result{err: err})
			continue
		}
		s.reply(req, result{x: res.X.Data, path: res.Path})
	}
}

// climb runs the ladder and keeps the precision counters: refinement
// iterations spent on the served plane (rung one; always 0 on a float64
// server, whose rung one has no budget), and — when a mixed server's
// refinement gave up and a float64 rung ran — why.
func (s *Server) climb(ctx context.Context, rungs []ladder.Rung, b *sparse.Block, ws *ladder.Scratch) (ladder.Result, error) {
	res, err := ladder.Run(ctx, s.a, rungs, b, s.cfg.Tol, ws)
	first := res.Tried[0]
	s.met.refineIters.Add(uint64(first.Iters))
	if s.guard != nil && len(res.Tried) > 1 && first.Reason != "" {
		s.met.observeFallback(first.Reason)
	}
	return res, err
}

// blocksFor returns the cached gather/solution blocks for width m.
func (s *Server) blocksFor(m int) *batchBlocks {
	if bb, ok := s.blocks[m]; ok {
		return bb
	}
	n := s.a.N
	bb := &batchBlocks{b: sparse.NewBlock(n, m), ws: ladder.Scratch{X: sparse.NewBlock(n, m), R: sparse.NewBlock(n, m)}}
	s.blocks[m] = bb
	return bb
}

// batchContext bounds the coalesced sweep. Per-request deadlines
// propagate as the farthest member deadline, so no single member's
// deadline can cut its batchmates short; a member whose own context ends
// before the sweep finishes gets its cancellation at reply time, the
// rest keep their answers. If any member is deadline-free the sweep runs
// unbounded (like that member asked).
func batchContext(live []*request) (context.Context, context.CancelFunc) {
	var max time.Time
	for _, req := range live {
		dl, ok := req.ctx.Deadline()
		if !ok {
			return context.Background(), nil
		}
		if dl.After(max) {
			max = dl
		}
	}
	return context.WithDeadline(context.Background(), max)
}
