package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/faultinject"
	"sptrsv/internal/harness"
	"sptrsv/internal/ladder"
	"sptrsv/internal/mesh"
	"sptrsv/internal/native"
	"sptrsv/internal/prec"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

func prepGrid(t testing.TB, nx, ny int) (*harness.Prepared, *chol.Factor) {
	t.Helper()
	pr := harness.Prepare(mesh.Problem{
		Name: fmt.Sprintf("grid-%dx%d", nx, ny),
		A:    mesh.Grid2D(nx, ny), Geom: mesh.Grid2DGeometry(nx, ny),
	})
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		t.Fatal(err)
	}
	return pr, f
}

func randRHS(pr *harness.Prepared, seed int64) []float64 {
	return mesh.RandomRHS(pr.Sym.N, 1, seed).Data
}

// fireConcurrent submits every rhs concurrently (so they can coalesce)
// and returns the per-request answers and errors in input order.
func fireConcurrent(srv *Server, ctxs []context.Context, rhss [][]float64) ([][]float64, []error) {
	xs := make([][]float64, len(rhss))
	errs := make([]error, len(rhss))
	var wg sync.WaitGroup
	for i := range rhss {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			xs[i], errs[i] = srv.Solve(ctxs[i], rhss[i])
		}(i)
	}
	wg.Wait()
	return xs, errs
}

func backgroundCtxs(n int) []context.Context {
	ctxs := make([]context.Context, n)
	for i := range ctxs {
		ctxs[i] = context.Background()
	}
	return ctxs
}

// TestBatchedBitwiseIdenticalToIndividual is the batching-correctness
// pin: answers produced by a coalesced multi-RHS sweep must be bitwise
// identical to the same requests solved individually on a dedicated
// single-RHS solver.
func TestBatchedBitwiseIdenticalToIndividual(t *testing.T) {
	pr, f := prepGrid(t, 21, 17)
	// The batcher can outrun concurrent submitters (it serves whoever is
	// admitted first without waiting for requests it cannot see coming),
	// so guarantee coalescing by stalling each sweep briefly: whatever
	// the first sweep picks up, the rest of the requests are admitted
	// while it runs and must coalesce into the following sweeps. A stall
	// only sleeps — the arithmetic stays bitwise identical.
	inj := &faultinject.Injection{
		Kind: faultinject.KindStall, Phase: native.ForwardPhase,
		Supernode: 0, Stall: 30 * time.Millisecond,
	}
	srv := New(pr.A, f, Config{MaxBatch: 8, Linger: 20 * time.Millisecond, TaskHook: inj.Hook()})
	defer srv.Close()

	const k = 16
	rhss := make([][]float64, k)
	for i := range rhss {
		rhss[i] = randRHS(pr, int64(i+1))
	}
	xs, errs := fireConcurrent(srv, backgroundCtxs(k), rhss)

	ref := native.NewSolver(f, native.Options{})
	defer ref.Close()
	for i := range rhss {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want, _, err := ref.SolveCtx(context.Background(), &sparse.Block{N: pr.Sym.N, M: 1, Data: rhss[i]})
		if err != nil {
			t.Fatal(err)
		}
		for j := range xs[i] {
			if xs[i][j] != want.Data[j] {
				t.Fatalf("request %d: served answer differs from individual solve at row %d: %g vs %g",
					i, j, xs[i][j], want.Data[j])
			}
		}
	}
	snap := srv.Snapshot()
	if snap.PathNative != k || snap.PathSequentialRefine != 0 || snap.Failed != 0 {
		t.Fatalf("healthy load took wrong paths: %+v", snap)
	}
	if snap.Batches >= k {
		t.Fatalf("no coalescing happened: %d batches for %d requests", snap.Batches, k)
	}
	// The per-kernel task counters surface the solver's dispatch census:
	// every coalesced sweep ran some kernel, so the totals must be
	// nonzero and a whole number of per-sweep censuses.
	var kernelTotal int64
	for _, n := range snap.KernelTasks {
		kernelTotal += n
	}
	if ns := int64(pr.Sym.NSuper); kernelTotal == 0 || kernelTotal%(2*ns) != 0 {
		t.Fatalf("kernel task totals %v: want a positive multiple of 2×NSuper = %d", snap.KernelTasks, 2*ns)
	}
}

// TestPoisonedRHSDoesNotSinkBatchmates: one NaN right-hand side fails
// the coalesced sweep's finiteness scan; the split must deliver every
// healthy batchmate its exact individual answer while only the poisoned
// request errors.
func TestPoisonedRHSDoesNotSinkBatchmates(t *testing.T) {
	pr, f := prepGrid(t, 21, 17)
	srv := New(pr.A, f, Config{MaxBatch: 6, Linger: 50 * time.Millisecond})
	defer srv.Close()

	const k = 6
	const bad = 2
	rhss := make([][]float64, k)
	for i := range rhss {
		rhss[i] = randRHS(pr, int64(100+i))
	}
	rhss[bad][pr.Sym.N/3] = math.NaN()
	xs, errs := fireConcurrent(srv, backgroundCtxs(k), rhss)

	if errs[bad] == nil {
		t.Fatal("poisoned RHS produced a success")
	}
	ref := native.NewSolver(f, native.Options{})
	defer ref.Close()
	for i := range rhss {
		if i == bad {
			continue
		}
		if errs[i] != nil {
			t.Fatalf("healthy batchmate %d sunk by poisoned RHS: %v", i, errs[i])
		}
		want, _, err := ref.SolveCtx(context.Background(), &sparse.Block{N: pr.Sym.N, M: 1, Data: rhss[i]})
		if err != nil {
			t.Fatal(err)
		}
		for j := range xs[i] {
			if xs[i][j] != want.Data[j] {
				t.Fatalf("batchmate %d: answer differs at row %d after split", i, j)
			}
		}
	}
	snap := srv.Snapshot()
	if snap.BatchSplits == 0 {
		t.Fatal("poisoned batch was not split")
	}
	if snap.Failed != 1 {
		t.Fatalf("Failed = %d, want 1 (the poisoned request)", snap.Failed)
	}
}

// TestInjectedFaultDegradesPerBatch: a persistent per-supernode injected
// error kills every native sweep, so each request must degrade through
// the sequential+refine rung — and still match the answer the plain
// ladder produces for the same fault.
func TestInjectedFaultDegradesPerBatch(t *testing.T) {
	pr, f := prepGrid(t, 21, 17)
	inj := &faultinject.Injection{
		Kind: faultinject.KindError, Phase: native.ForwardPhase,
		Supernode: pr.Sym.NSuper / 2,
	}
	srv := New(pr.A, f, Config{MaxBatch: 4, Linger: 20 * time.Millisecond, TaskHook: inj.Hook()})
	defer srv.Close()

	const k = 8
	rhss := make([][]float64, k)
	for i := range rhss {
		rhss[i] = randRHS(pr, int64(500+i))
	}
	xs, errs := fireConcurrent(srv, backgroundCtxs(k), rhss)

	ref := native.NewSolver(f, native.Options{TaskHook: inj.Hook()})
	defer ref.Close()
	for i := range rhss {
		if errs[i] != nil {
			t.Fatalf("request %d: sequential fallback failed: %v", i, errs[i])
		}
		res, err := ladder.Run(context.Background(), pr.A, ladder.Float64(ref),
			&sparse.Block{N: pr.Sym.N, M: 1, Data: rhss[i]}, 1e-10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Path != ladder.PathSequentialRefine {
			t.Fatalf("reference ladder took %q, expected fallback", res.Path)
		}
		for j := range xs[i] {
			if xs[i][j] != res.X.Data[j] {
				t.Fatalf("request %d: served fallback answer differs at row %d", i, j)
			}
		}
	}
	snap := srv.Snapshot()
	if snap.PathNative != 0 || snap.PathSequentialRefine != k {
		t.Fatalf("path counters %+v, want all %d on sequential+refine", snap, k)
	}
	if snap.BatchSplits == 0 {
		t.Fatal("faulted batches were not split")
	}
}

// TestMidBatchCancellation: cancelling one member mid-flight yields a
// CancelledError for that member only; batchmates get exact answers.
func TestMidBatchCancellation(t *testing.T) {
	pr, f := prepGrid(t, 21, 17)
	// Stall the root supernode long enough for the cancellation to land
	// mid-sweep.
	inj := &faultinject.Injection{
		Kind: faultinject.KindStall, Phase: native.ForwardPhase,
		Supernode: pr.Sym.NSuper - 1, Stall: 80 * time.Millisecond,
	}
	srv := New(pr.A, f, Config{MaxBatch: 4, Linger: 20 * time.Millisecond, TaskHook: inj.Hook()})
	defer srv.Close()

	const k = 4
	const victim = 1
	rhss := make([][]float64, k)
	ctxs := backgroundCtxs(k)
	for i := range rhss {
		rhss[i] = randRHS(pr, int64(900+i))
	}
	vctx, vcancel := context.WithCancel(context.Background())
	ctxs[victim] = vctx
	go func() {
		time.Sleep(20 * time.Millisecond) // a full batch sweeps immediately; this lands mid-stall
		vcancel()
	}()
	xs, errs := fireConcurrent(srv, ctxs, rhss)

	var ce *native.CancelledError
	if !errors.As(errs[victim], &ce) {
		t.Fatalf("cancelled member got %v, want *native.CancelledError", errs[victim])
	}
	ref := native.NewSolver(f, native.Options{TaskHook: inj.Hook()})
	defer ref.Close()
	for i := range rhss {
		if i == victim {
			continue
		}
		if errs[i] != nil {
			t.Fatalf("batchmate %d sunk by cancellation: %v", i, errs[i])
		}
		want, _, err := ref.SolveCtx(context.Background(), &sparse.Block{N: pr.Sym.N, M: 1, Data: rhss[i]})
		if err != nil {
			t.Fatal(err)
		}
		for j := range xs[i] {
			if xs[i][j] != want.Data[j] {
				t.Fatalf("batchmate %d: answer differs at row %d", i, j)
			}
		}
	}
}

// TestOverloadShedding: with a tiny queue and a stalled solver, excess
// requests are rejected with the typed overload error and counted.
func TestOverloadShedding(t *testing.T) {
	pr, f := prepGrid(t, 15, 15)
	inj := &faultinject.Injection{
		Kind: faultinject.KindStall, Phase: native.ForwardPhase,
		Supernode: 0, Stall: 20 * time.Millisecond,
	}
	srv := New(pr.A, f, Config{MaxBatch: 1, QueueDepth: 2, TaskHook: inj.Hook()})
	defer srv.Close()

	const k = 12
	rhss := make([][]float64, k)
	for i := range rhss {
		rhss[i] = randRHS(pr, int64(i+1))
	}
	_, errs := fireConcurrent(srv, backgroundCtxs(k), rhss)

	var overloaded, served int
	for _, err := range errs {
		var oe *OverloadError
		switch {
		case err == nil:
			served++
		case errors.As(err, &oe):
			if oe.QueueDepth != 2 {
				t.Fatalf("overload error reports depth %d, want 2", oe.QueueDepth)
			}
			overloaded++
		default:
			t.Fatalf("unexpected error under overload: %v", err)
		}
	}
	if overloaded == 0 {
		t.Fatal("no request was shed with 12 arrivals against a depth-2 queue")
	}
	snap := srv.Snapshot()
	if snap.RejectedOverload != uint64(overloaded) || snap.Accepted != uint64(served) {
		t.Fatalf("counters %+v disagree with observed overloaded=%d served=%d", snap, overloaded, served)
	}
}

// TestServedGoroutinesFlat is the acceptance pin: ≥1000 served requests
// must not grow the goroutine count (warm solver, no per-request pools).
func TestServedGoroutinesFlat(t *testing.T) {
	pr, f := prepGrid(t, 15, 15)
	srv := New(pr.A, f, Config{MaxBatch: 8, Linger: 50 * time.Microsecond})
	defer srv.Close()

	warm := func(n int) {
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rhs := randRHS(pr, int64(c+1))
				for i := 0; i < n; i++ {
					if _, err := srv.Solve(context.Background(), rhs); err != nil {
						t.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}
	warm(5) // spawn the pool and size the arena before measuring
	base := runtime.NumGoroutine()
	warm(300) // 4 clients × 300 = 1200 served requests
	var now int
	for wait := 0; wait < 100; wait++ {
		if now = runtime.NumGoroutine(); now <= base+2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if now > base+2 {
		t.Fatalf("goroutines grew from %d to %d across 1200 served requests", base, now)
	}
	if snap := srv.Snapshot(); snap.PathNative != 1220 {
		t.Fatalf("PathNative = %d, want 1220", snap.PathNative)
	}
}

// TestCloseSemantics: Close is idempotent, rejects new requests, and
// fails queued ones with ErrServerClosed.
func TestCloseSemantics(t *testing.T) {
	pr, f := prepGrid(t, 15, 15)
	srv := New(pr.A, f, Config{})
	rhs := randRHS(pr, 1)
	if _, err := srv.Solve(context.Background(), rhs); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // idempotent
	if _, err := srv.Solve(context.Background(), rhs); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-Close Solve returned %v, want ErrServerClosed", err)
	}
}

// TestInvalidRHSRejected: a wrong-size request is refused before
// touching the queue or the solver.
func TestInvalidRHSRejected(t *testing.T) {
	pr, f := prepGrid(t, 15, 15)
	srv := New(pr.A, f, Config{})
	defer srv.Close()
	var de *native.DimensionError
	if _, err := srv.Solve(context.Background(), make([]float64, pr.Sym.N+1)); !errors.As(err, &de) {
		t.Fatalf("oversized RHS returned %v, want *native.DimensionError", err)
	}
	if snap := srv.Snapshot(); snap.RejectedInvalid != 1 || snap.Accepted != 0 {
		t.Fatalf("invalid request miscounted: %+v", snap)
	}
}

// TestSolveIntoRejectsAliasedSolution: x and rhs as one slice is refused
// before the queue — the scatter into x would overwrite the rhs the
// request's own verification reads — and leaves rhs as it was.
func TestSolveIntoRejectsAliasedSolution(t *testing.T) {
	pr, f := prepGrid(t, 15, 15)
	srv := New(pr.A, f, Config{})
	defer srv.Close()
	rhs := randRHS(pr, 1)
	want := append([]float64(nil), rhs...)
	if err := srv.SolveInto(context.Background(), rhs, rhs); !errors.Is(err, ErrAliased) {
		t.Fatalf("aliased SolveInto returned %v, want ErrAliased", err)
	}
	for i := range rhs {
		if rhs[i] != want[i] {
			t.Fatalf("rhs[%d] changed to %v from %v", i, rhs[i], want[i])
		}
	}
	if snap := srv.Snapshot(); snap.RejectedInvalid != 1 || snap.Accepted != 0 {
		t.Fatalf("aliased request miscounted: %+v", snap)
	}
}

// TestLatencyQuantile sanity-checks the snapshot histogram math.
func TestLatencyQuantile(t *testing.T) {
	var m metrics
	for i := 0; i < 90; i++ {
		m.observeLatency(40 * time.Microsecond) // first bucket (≤50µs)
	}
	for i := 0; i < 10; i++ {
		m.observeLatency(20 * time.Millisecond) // ≤25ms bucket
	}
	snap := m.latency()
	if got := snap.Quantile(0.5); got != 50*time.Microsecond {
		t.Fatalf("p50 = %v, want 50µs", got)
	}
	if got := snap.Quantile(0.99); got != 25*time.Millisecond {
		t.Fatalf("p99 = %v, want 25ms", got)
	}
}

// TestLatencyQuantileEdgeCases pins the satellite fix: an empty
// histogram and out-of-range q must return 0 / clamp, never index out
// of range or produce garbage.
func TestLatencyQuantileEdgeCases(t *testing.T) {
	// Zero observations, with and without buckets.
	if got := (LatencySnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("zero-value snapshot: %v, want 0", got)
	}
	// Nonzero count with an empty bucket slice (a hand-built or torn
	// snapshot) must not panic.
	if got := (LatencySnapshot{Count: 7}).Quantile(0.99); got != 0 {
		t.Fatalf("count without buckets: %v, want 0", got)
	}

	// A populated histogram: q outside [0,1] clamps to the extremes,
	// and NaN reads as the minimum.
	var m metrics
	for i := 0; i < 9; i++ {
		m.observeLatency(40 * time.Microsecond)
	}
	m.observeLatency(10 * time.Second) // lands in the +Inf bucket
	snap := m.latency()

	min, max := 50*time.Microsecond, 5*time.Second // first and last finite bounds
	for _, q := range []float64{-1, -0.001, 0} {
		if got := snap.Quantile(q); got != min {
			t.Fatalf("Quantile(%g) = %v, want clamp to %v", q, got, min)
		}
	}
	for _, q := range []float64{1, 1.5, 100} {
		// q = 1 lands in the +Inf bucket, which reports the last finite
		// bound — and q > 1 must clamp to the same, not underflow a
		// uint64 rank.
		if got := snap.Quantile(q); got != max {
			t.Fatalf("Quantile(%g) = %v, want %v", q, got, max)
		}
	}
	if got := snap.Quantile(math.NaN()); got != min {
		t.Fatalf("Quantile(NaN) = %v, want %v", got, min)
	}
	// All-overflow histogram: every observation beyond every bound
	// still returns the last finite bound, not a negative duration.
	over := LatencySnapshot{Count: 3, Buckets: []Bucket{
		{UpperBound: int64(time.Millisecond)},
		{UpperBound: -1, Count: 3},
	}}
	if got := over.Quantile(0.5); got != time.Millisecond {
		t.Fatalf("all-overflow histogram: %v, want 1ms", got)
	}
}

// TestLatencySumExact: the snapshot's Sum is the exact total, not the
// truncated Mean times Count (1, 1 and 2 ns: Mean 1 ns, Sum 4 ns, where
// Mean×Count reads 3).
func TestLatencySumExact(t *testing.T) {
	var m metrics
	for _, d := range []time.Duration{1, 1, 2} {
		m.observeLatency(d)
	}
	if l := m.latency(); l.Count != 3 || l.Mean != 1 || l.Sum != 4 {
		t.Fatalf("count %d mean %v sum %v, want 3, 1ns, 4ns", l.Count, l.Mean, l.Sum)
	}
}

// TestMixedServerLadder drives the mixed rung list through the server:
// on a well-conditioned grid each request's column of the coalesced f32
// sweep is refined on its own, with width-1 corrections, to the solo
// climb's answer bit for bit (no split, no fallback, iterations
// counted); on HILBERT-10, whose κ ≈ 1.6e13 is beyond any f32
// refinement, rung one stagnates in the requester's climb and the lazily
// built float64 factor answers — charged to FallbackBytes and attributed
// to the reason refinement stopped with. The sweep itself succeeded, so
// no batch splits.
func TestMixedServerLadder(t *testing.T) {
	residual := func(pr *harness.Prepared, x, rhs []float64) float64 {
		return harness.RelResidual(pr.A, sparse.BlockFromVec(x), sparse.BlockFromVec(rhs))
	}
	t.Run("refined per column", func(t *testing.T) {
		pr, f := prepGrid(t, 21, 17)
		srv := New(pr.A, f, Config{Precision: prec.PolicyMixed, MaxBatch: 4, Linger: 20 * time.Millisecond})
		defer srv.Close()
		const k = 8
		rhss := make([][]float64, k)
		for i := range rhss {
			rhss[i] = randRHS(pr, int64(40+i))
		}
		xs, errs := fireConcurrent(srv, backgroundCtxs(k), rhss)
		for i := range rhss {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if r := residual(pr, xs[i], rhss[i]); !(r <= 1e-10) {
				t.Fatalf("request %d: residual %.3g", i, r)
			}
		}
		snap := srv.Snapshot()
		if snap.PathMixedRefine != k || snap.RefineIterations == 0 || snap.BatchSplits != 0 {
			t.Fatalf("snapshot %+v: want all %d on mixed+refine, iterations counted, no split", snap, k)
		}
		if srv.FallbackBytes() != 0 || len(snap.RefineFallbacks) != 0 {
			t.Fatalf("a healthy mixed server built its fallback: %d bytes, %v", srv.FallbackBytes(), snap.RefineFallbacks)
		}
		opts := native.Options{Precision: native.PrecisionFloat32}
		ref := native.NewSolver(f.Demote(), opts)
		defer ref.Close()
		g := prec.NewGuard(pr.A, pr.Sym, opts)
		defer g.Close()
		for i := range rhss {
			want, err := ladder.Run(context.Background(), pr.A, g.Rungs(ref), sparse.BlockFromVec(rhss[i]), 1e-10, nil)
			if err != nil || want.Path != ladder.PathMixedRefine {
				t.Fatalf("solo climb: path %q, err %v", want.Path, err)
			}
			for j, v := range want.X.Data {
				if xs[i][j] != v {
					t.Fatalf("request %d: served answer differs from the solo climb at row %d", i, j)
				}
			}
		}
	})
	t.Run("stagnation falls back", func(t *testing.T) {
		const n = 10
		tr := sparse.NewTriplet(n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				tr.Add(i, j, 1/float64(i+j+1))
			}
		}
		pr := &harness.Prepared{Name: "HILBERT-10", A: tr.Compile(), Sym: symbolic.Dense(n)}
		f, err := chol.Factorize(pr.A, pr.Sym)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(pr.A, f, Config{Precision: prec.PolicyMixed})
		defer srv.Close()
		// A consistent RHS (b = A·1) is one the float64 side can meet 1e-10 on.
		b := sparse.NewBlock(n, 1)
		pr.A.MulBlock(mesh.OnesRHS(n, 1), b)
		x, err := srv.Solve(context.Background(), b.Data)
		if err != nil {
			t.Fatal(err)
		}
		if r := residual(pr, x, b.Data); !(r <= 1e-10) {
			t.Fatalf("fallback residual %.3g", r)
		}
		snap := srv.Snapshot()
		if snap.PathFloat64Fallback != 1 || snap.BatchSplits != 0 {
			t.Fatalf("snapshot %+v: want one float64-fallback answer and no split", snap)
		}
		if got := snap.RefineFallbacks["stagnated"] + snap.RefineFallbacks["non-finite residual"]; got != 1 {
			t.Fatalf("RefineFallbacks = %v, want one stagnation or non-finite activation", snap.RefineFallbacks)
		}
		if want := pr.Sym.NnzL * 8; srv.FallbackBytes() != want {
			t.Fatalf("FallbackBytes = %d, want %d", srv.FallbackBytes(), want)
		}
	})
}

// soloClimb is the reference answer of one right-hand side: the whole
// float64 ladder at width 1 on a dedicated solver, tolerance tol.
func soloClimb(t *testing.T, pr *harness.Prepared, f *chol.Factor, rhs []float64, tol float64) ladder.Result {
	t.Helper()
	ref := native.NewSolver(f, native.Options{})
	defer ref.Close()
	res, err := ladder.Run(context.Background(), pr.A, ladder.Float64(ref), sparse.BlockFromVec(rhs), tol, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScaleMismatchAcceptedPerColumn: a right-hand side of scale 1
// coalesced beside one of scale 1e8, with the tolerance between their
// solo relative residuals. Judged by the block's norms, the small
// column would pass on the large one's scale; judged by its own it
// misses, and — like alone — it must climb to sequential+refine. Every
// answer meets the tolerance on its own column and equals its solo
// climb, bit for bit and path for path.
func TestScaleMismatchAcceptedPerColumn(t *testing.T) {
	pr, f := prepGrid(t, 21, 17)
	big, small := randRHS(pr, 7), randRHS(pr, 8)
	for i := range big {
		big[i] *= 1e8
	}
	nat := func(rhs []float64) float64 {
		res := soloClimb(t, pr, f, rhs, math.Inf(1))
		return res.Residual
	}
	rBig, rSmall := nat(big), nat(small)
	if !(rBig < rSmall) {
		t.Fatalf("solo native residuals %.3g (1e8 scale) and %.3g (unit scale) no longer separate", rBig, rSmall)
	}
	tol := math.Sqrt(rBig * rSmall)

	// The first sweep stalls until both requests are queued behind it,
	// so they coalesce into the second.
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hook := func(_ context.Context, p native.TaskPhase, s int) error {
		if p == native.ForwardPhase && s == 0 {
			once.Do(func() { close(entered); <-gate })
		}
		return nil
	}
	srv := New(pr.A, f, Config{MaxBatch: 2, Linger: 50 * time.Millisecond, Tol: tol, TaskHook: hook})
	defer srv.Close()

	rhss := [][]float64{randRHS(pr, 1), big, small}
	xs := make([][]float64, len(rhss))
	errs := make([]error, len(rhss))
	var wg sync.WaitGroup
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			xs[i], errs[i] = srv.Solve(context.Background(), rhss[i])
		}()
	}
	submit(0)
	<-entered
	submit(1)
	submit(2)
	for srv.inflight.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if snap := srv.Snapshot(); snap.Batches != 2 || snap.MaxBatchWidth != 2 {
		t.Fatalf("%d batches, widest %d: want the two requests coalesced behind the first", snap.Batches, snap.MaxBatchWidth)
	}
	paths := map[ladder.Path]uint64{}
	for i, rhs := range rhss {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if r := harness.RelResidual(pr.A, sparse.BlockFromVec(xs[i]), sparse.BlockFromVec(rhs)); !(r <= tol) {
			t.Fatalf("request %d answered at residual %.3g on its own column, above tolerance %.3g", i, r, tol)
		}
		want := soloClimb(t, pr, f, rhs, tol)
		paths[want.Path]++
		for j, v := range want.X.Data {
			if xs[i][j] != v {
				t.Fatalf("request %d: answer differs from its solo climb (%s) at row %d", i, want.Path, j)
			}
		}
	}
	if paths[ladder.PathSequentialRefine] == 0 {
		t.Fatal("the unit-scale request passes alone; the fixture tests nothing")
	}
	snap := srv.Snapshot()
	if snap.PathNative != paths[ladder.PathNative] || snap.PathSequentialRefine != paths[ladder.PathSequentialRefine] {
		t.Fatalf("served paths native %d, sequential+refine %d; solo climbs took %v",
			snap.PathNative, snap.PathSequentialRefine, paths)
	}
}

// TestBatcherServesWhileOneClimbs: a request whose own column misses the
// tolerance climbs to the sequential rung in its own goroutine; while
// that rung is held, the batcher keeps sweeping and answering others.
func TestBatcherServesWhileOneClimbs(t *testing.T) {
	pr, f := prepGrid(t, 21, 17)
	big, small := randRHS(pr, 7), randRHS(pr, 8)
	for i := range big {
		big[i] *= 1e8
	}
	tol := math.Sqrt(soloClimb(t, pr, f, big, math.Inf(1)).Residual * soloClimb(t, pr, f, small, math.Inf(1)).Residual)
	srv := New(pr.A, f, Config{Tol: tol})
	defer srv.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	seq := srv.rungs[1].Sweep
	var once sync.Once
	srv.rungs[1].Sweep = func(ctx context.Context, b, x *sparse.Block) error {
		once.Do(func() { close(entered); <-release }) // the rung's first sweep; its corrections pass
		return seq(ctx, b, x)
	}

	var (
		xSmall []float64
		errS   error
		done   = make(chan struct{})
	)
	go func() {
		defer close(done)
		xSmall, errS = srv.Solve(context.Background(), small)
	}()
	<-entered
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		x, err := srv.Solve(ctx, big)
		cancel()
		if err != nil {
			t.Fatalf("solve %d behind a request on the sequential rung: %v", i, err)
		}
		if r := harness.RelResidual(pr.A, sparse.BlockFromVec(x), sparse.BlockFromVec(big)); !(r <= tol) {
			t.Fatalf("solve %d: residual %.3g", i, r)
		}
	}
	close(release)
	<-done
	if errS != nil {
		t.Fatal(errS)
	}
	want := soloClimb(t, pr, f, small, tol)
	for j, v := range want.X.Data {
		if xSmall[j] != v {
			t.Fatalf("held request: answer differs from its solo climb (%s) at row %d", want.Path, j)
		}
	}
	if snap := srv.Snapshot(); snap.PathNative != 5 || snap.PathSequentialRefine != 1 || snap.BatchSplits != 0 {
		t.Fatalf("snapshot %+v: want 5 native answers, 1 sequential+refine, no split", snap)
	}
}

// TestSolveIntoAllocationFree pins the warm request path: admission,
// the gather, the width-1 sweep, the scatter and the requester's own
// verification allocate nothing once the request pool and the solver
// arena are warm.
func TestSolveIntoAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	pr, f := prepGrid(t, 21, 17)
	srv := New(pr.A, f, Config{})
	defer srv.Close()
	rhs, x := randRHS(pr, 1), make([]float64, pr.Sym.N)
	solve := func() {
		if err := srv.SolveInto(context.Background(), rhs, x); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		solve()
	}
	if allocs := testing.AllocsPerRun(200, solve); allocs != 0 {
		t.Fatalf("warm SolveInto: %.2f allocations per call, want 0", allocs)
	}
}
