// This file is the server core: admission, batch formation, the
// coalesced sweep, and each request's own verification and degradation
// climb. The package contract (bitwise identity of batched answers,
// per-column acceptance, degradation semantics) is documented in doc.go.
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

// ErrAliased is returned by SolveInto when x is the same vector as rhs:
// the batcher writes x while the request's own verification still
// reads rhs, so the two must be distinct storage.
var ErrAliased = errors.New("serve: solution vector is the right-hand side")

// OverloadError is the typed admission-control rejection: the queue was
// full when the request arrived. Callers should back off or shed load;
// the request consumed no solver resources.
type OverloadError struct {
	QueueDepth int // the admission limit that was hit
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded: admission queue full (%d waiting)", e.QueueDepth)
}

// request is one admitted single-RHS solve. Requests are pooled per
// server: the verification storage below is sized once, so a warm
// SolveInto allocates nothing. A request goes back to the pool only
// after its reply arrived — a requester that leaves on cancellation
// abandons it, since the batcher may still hold it.
type request struct {
	ctx  context.Context
	rhs  []float64
	x    []float64 // the caller's answer vector; the batcher scatters into it
	enq  time.Time
	done chan error // buffered 1: the batcher never blocks on a reply

	// b and xb view rhs and x as N×1 blocks; ws holds the residual and
	// the climb's record for the requester's own ladder climb.
	b, xb sparse.Block
	ws    ladder.Scratch
}

// errSplit is the reply to every member of a batch whose coalesced
// sweep failed: the requester climbs the whole ladder alone. Terminal
// replies — cancelled while queued, server closed — pass through as
// they are.
var errSplit = errors.New("serve: coalesced sweep failed")

// batchBlocks is the reusable gather and solution storage for one batch
// width. Widths repeat heavily under steady load, so caching per width
// keeps the steady-state gather and scatter allocation-free and lets
// the solver arena stay warm.
type batchBlocks struct {
	b, x *sparse.Block
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
	// rungs is the degradation ladder every request climbs: rung one's
	// sweep at the coalesced width on the batcher, verification and the
	// rest of the climb in the requester's goroutine.
	f         *chol.Factor
	precision native.Precision
	guard     *prec.Guard
	rungs     []ladder.Rung

	queue chan *request
	stop  chan struct{}
	// wg counts the batcher and every admitted request until its Solve
	// returns, so Close waits out climbs that run in requester
	// goroutines too.
	wg   sync.WaitGroup
	reqs sync.Pool // *request, sized for this server's N

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
	x := make([]float64, s.a.N)
	if err := s.SolveInto(ctx, rhs, x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto is Solve with the answer written into x (length N, not
// overlapping rhs — the same slice for both is rejected with
// ErrAliased): the batcher scatters the request's column of the
// coalesced sweep straight into it, and the request's own verification
// and any lower rung run in the calling goroutine. It returns the same
// errors as Solve, and allocates nothing on a warm server whose sweep
// passes verification. After a *native.CancelledError return the
// server may still read rhs and write x — a caller that pools them must
// not reuse them then; after every other return it has let go of both.
func (s *Server) SolveInto(ctx context.Context, rhs, x []float64) error {
	n := s.a.N
	if len(rhs) != n || len(x) != n {
		s.met.rejectedInvalid.Add(1)
		what, got := "RHS rows", len(rhs)
		if len(rhs) == n {
			what, got = "solution rows", len(x)
		}
		return &native.DimensionError{What: what, Got: got, Want: n}
	}
	if n > 0 && &x[0] == &rhs[0] {
		s.met.rejectedInvalid.Add(1)
		return ErrAliased
	}
	req := s.getRequest()
	req.ctx, req.rhs, req.x, req.enq = ctx, rhs, x, time.Now()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.putRequest(req)
		return ErrServerClosed
	}
	// Counted before the enqueue so the batcher never observes a queued
	// request that is missing from the in-flight gauge, and in wg under
	// the read lock so Close's Wait starts after every admission.
	s.inflight.Add(1)
	select {
	case s.queue <- req:
		s.wg.Add(1)
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.inflight.Add(-1)
		s.putRequest(req)
		s.met.rejectedOverload.Add(1)
		return &OverloadError{QueueDepth: cap(s.queue)}
	}
	s.met.accepted.Add(1)
	defer s.wg.Done()
	defer s.inflight.Add(-1)
	select {
	case err := <-req.done:
		path, err := s.finish(req, err)
		s.met.observeLatency(time.Since(req.enq))
		s.account(err, path)
		s.putRequest(req)
		return err
	case <-ctx.Done():
		// The batcher may still solve this request, reading rhs and
		// writing x; its reply lands in the buffered channel and is
		// dropped with the request.
		s.met.observeLatency(time.Since(req.enq))
		s.met.cancelled.Add(1)
		return &native.CancelledError{Cause: context.Cause(ctx)}
	}
}

// finish completes one request from the batcher's reply, in the
// requester's goroutine: after a healthy coalesced sweep it verifies —
// and on a mixed server refines — the request's own column and climbs
// on from there on a miss; after a failed sweep it climbs the whole
// ladder alone under its own context. Terminal replies pass through.
func (s *Server) finish(req *request, reply error) (ladder.Path, error) {
	split := reply == errSplit
	switch {
	case reply != nil && !split:
		return "", reply
	case split && req.ctx.Err() != nil:
		return "", &native.CancelledError{Cause: context.Cause(req.ctx)}
	}
	req.b.Data, req.xb.Data = req.rhs, req.x
	var (
		res ladder.Result
		err error
	)
	if split {
		res, err = ladder.Run(req.ctx, s.a, s.rungs, &req.b, s.cfg.Tol, &req.ws)
	} else {
		res, err = ladder.Finish(req.ctx, s.a, s.rungs, &req.b, s.cfg.Tol, &req.ws, nil)
	}
	req.b.Data, req.xb.Data = nil, nil
	// Refinement iterations spent on the served plane (rung one; always
	// 0 on a float64 server, whose rung one has no budget), and — when a
	// mixed server's refinement gave up and a float64 rung ran — why.
	first := res.Tried[0]
	s.met.refineIters.Add(uint64(first.Iters))
	if s.guard != nil && len(res.Tried) > 1 && first.Reason != "" {
		s.met.observeFallback(first.Reason)
	}
	return res.Path, err
}

// getRequest takes a request from the pool, or builds one with its
// verification storage for this server's N.
func (s *Server) getRequest() *request {
	if req, ok := s.reqs.Get().(*request); ok {
		return req
	}
	n := s.a.N
	req := &request{done: make(chan error, 1), b: sparse.Block{N: n, M: 1}}
	req.xb = req.b
	req.ws = ladder.Scratch{X: &req.xb, R: sparse.NewBlock(n, 1)}
	return req
}

// putRequest returns a request whose reply arrived (or that was never
// queued) to the pool, dropping its references to the caller's data.
func (s *Server) putRequest(req *request) {
	req.ctx, req.rhs, req.x = nil, nil, nil
	s.reqs.Put(req)
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
// ErrServerClosed, waits for the in-flight batch and for every admitted
// request's own climb to finish, and releases the warm solver. It is
// idempotent and safe to call concurrently with Solve.
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

// reply hands one request its reply: nil (its column of a healthy sweep
// is in its x), errSplit, or a terminal error. Every admitted request
// gets exactly one reply (the done channel is buffered, so an abandoned
// cancelled request never blocks the batcher). The in-flight gauge is
// not touched here — the requester's SolveInto decrements it when it
// returns.
func (s *Server) reply(req *request, err error) {
	req.done <- err
}

// drain replies ErrServerClosed to everything still queued at shutdown.
func (s *Server) drain() {
	for {
		select {
		case req := <-s.queue:
			s.reply(req, ErrServerClosed)
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

// serveBatch serves one batch: gather → rung one's sweep at the
// coalesced width (one warm native sweep) → scatter each column into its
// requester's x. The batcher does nothing else: each requester verifies
// its own column, and on a failed sweep climbs the whole ladder alone,
// in its own goroutine — so a request on a lower rung never holds up the
// batches behind it.
func (s *Server) serveBatch(batch []*request) {
	live := batch[:0]
	for _, req := range batch {
		if req.ctx.Err() != nil {
			// Cancelled while queued: don't spend sweep width on it.
			s.reply(req, &native.CancelledError{Cause: context.Cause(req.ctx)})
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	m := len(live)
	s.met.observeBatch(m, len(s.queue))
	blk := s.blocksFor(m)
	for j, req := range live {
		for i, v := range req.rhs {
			blk.b.Data[i*m+j] = v
		}
	}
	bctx, cancel := batchContext(live)
	err := s.rungs[0].Sweep(bctx, blk.b, blk.x)
	if cancel != nil {
		cancel()
	}
	if err != nil {
		// The coalesced sweep failed — breakdown, task panic, deadline.
		// One bad right-hand side must not sink its batchmates: every
		// member retries alone through the whole ladder, in its own
		// goroutine and under its own context.
		s.met.batchSplits.Add(1)
		for _, req := range live {
			s.reply(req, errSplit)
		}
		return
	}
	for j, req := range live {
		for i := range req.x {
			req.x[i] = blk.x.Data[i*m+j]
		}
		s.reply(req, nil)
	}
}

// blocksFor returns the cached gather/solution blocks for width m.
func (s *Server) blocksFor(m int) *batchBlocks {
	if bb, ok := s.blocks[m]; ok {
		return bb
	}
	bb := &batchBlocks{b: sparse.NewBlock(s.a.N, m), x: sparse.NewBlock(s.a.N, m)}
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
