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
// on a well-conditioned grid the coalesced f32 sweep is refined at batch
// width (no split, no fallback, iterations counted); on HILBERT-10,
// whose κ ≈ 1.6e13 is beyond any f32 refinement, rung one stagnates, the
// batch splits, and the lazily built float64 factor answers — charged to
// FallbackBytes and attributed to the reason refinement stopped with.
func TestMixedServerLadder(t *testing.T) {
	residual := func(pr *harness.Prepared, x, rhs []float64) float64 {
		return harness.RelResidual(pr.A, sparse.BlockFromVec(x), sparse.BlockFromVec(rhs))
	}
	t.Run("refined at batch width", func(t *testing.T) {
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
		if snap.PathFloat64Fallback != 1 || snap.BatchSplits != 1 {
			t.Fatalf("snapshot %+v: want one float64-fallback answer after one split", snap)
		}
		// Rung one stopped the same way at batch width and after the split.
		if got := snap.RefineFallbacks["stagnated"] + snap.RefineFallbacks["non-finite residual"]; got != 1 {
			t.Fatalf("RefineFallbacks = %v, want one stagnation or non-finite activation", snap.RefineFallbacks)
		}
		if want := pr.Sym.NnzL * 8; srv.FallbackBytes() != want {
			t.Fatalf("FallbackBytes = %d, want %d", srv.FallbackBytes(), want)
		}
	})
}
