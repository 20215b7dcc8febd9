package registry

import (
	"context"
	"math"
	"testing"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/harness"
	"sptrsv/internal/mesh"
	"sptrsv/internal/native"
	"sptrsv/internal/prec"
	"sptrsv/internal/serve"
	"sptrsv/internal/sparse"
)

// TestMixedPrecisionChargedAtF32Footprint pins the budget-accounting
// fix of the precision subsystem: a matrix ingested under the mixed
// policy holds only the float32 value plane, so the registry must
// charge it 4 bytes per nonzero of L — not the float64 8 — and the
// per-precision byte split in Stats must agree.
func TestMixedPrecisionChargedAtF32Footprint(t *testing.T) {
	reg := New(Config{Serve: serve.Config{Workers: 1}})
	defer reg.Close()
	src, err := Spec{Grid2D: "15x15"}.Source()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("f64", src); err != nil {
		t.Fatal(err)
	}
	mixed := prec.PolicyMixed
	if err := reg.RegisterWith("f32", src, BuildOptions{Precision: &mixed}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"f64", "f32"} {
		h, err := reg.AcquireWait(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}

	st64, err := reg.Status("f64")
	if err != nil {
		t.Fatal(err)
	}
	st32, err := reg.Status("f32")
	if err != nil {
		t.Fatal(err)
	}
	if st64.Precision != "float64" || st32.Precision != "float32" {
		t.Fatalf("status precisions = %q / %q, want float64 / float32", st64.Precision, st32.Precision)
	}
	// Same matrix, same arenas (none sized yet): the only difference is
	// the value plane, 8·nnz(L) vs 4·nnz(L).
	if want := st64.Bytes - 4*st64.NnzL; st32.Bytes != want {
		t.Fatalf("mixed ingest charged %d bytes, want %d (float64 twin %d minus 4·nnz(L) = %d)",
			st32.Bytes, want, st64.Bytes, 4*st64.NnzL)
	}

	stats := reg.Stats()
	byPrec := stats.ResidentBytesByPrecision
	if byPrec["float64"] != st64.Bytes || byPrec["float32"] != st32.Bytes {
		t.Fatalf("ResidentBytesByPrecision = %v, want float64:%d float32:%d", byPrec, st64.Bytes, st32.Bytes)
	}
	if byPrec["float64"]+byPrec["float32"] != stats.ResidentBytes {
		t.Fatalf("per-precision split %v does not sum to ResidentBytes %d", byPrec, stats.ResidentBytes)
	}

	// The mixed entry must still answer at full accuracy.
	h, err := reg.AcquireWait("f32", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	a := h.Matrix()
	b := mesh.RandomRHS(a.N, 1, 1)
	x, err := h.Server().Solve(context.Background(), b.Data)
	if err != nil {
		t.Fatal(err)
	}
	if res := harness.RelResidual(a, sparse.BlockFromVec(x), b); res > 1e-10 {
		t.Fatalf("mixed-precision solve residual %.3g > 1e-10", res)
	}
	if got := h.Server().Precision(); got != native.PrecisionFloat32 {
		t.Fatalf("server precision %v, want float32", got)
	}
}

// TestStatsDoesNotWaitOnFallbackBuild: entry.bytes() reads the guard's
// fallback byte count with the registry mutex held, so Stats (and with
// it Status, List and every Acquire) must not queue behind a float64
// fallback factorization in flight. The factorization is timed first;
// no Stats call made while a poisoned solve forces the build may take a
// comparable time. The matrix is large enough that a third of its
// factorization stays above the scheduler's 10 ms time slice, which a
// Stats call can lose to the other goroutines on a two-CPU host.
func TestStatsDoesNotWaitOnFallbackBuild(t *testing.T) {
	pr := harness.PrepareDense(1200)
	t0 := time.Now()
	if _, err := chol.Factorize(pr.A, pr.Sym); err != nil {
		t.Fatal(err)
	}
	build := time.Since(t0)

	reg := New(Config{Serve: serve.Config{Workers: 1, Precision: prec.PolicyMixed}})
	defer reg.Close()
	if err := reg.Register("m", PreparedSource(pr.A, pr.Sym)); err != nil {
		t.Fatal(err)
	}
	h, err := reg.AcquireWait("m", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	// A NaN right-hand side fails the f32 rung whatever the matrix, so
	// the climb factorizes the float64 fallback.
	rhs := make([]float64, pr.Sym.N)
	rhs[0] = math.NaN()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.Server().Solve(context.Background(), rhs)
	}()
	var worst time.Duration
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		t0 := time.Now()
		reg.Stats()
		worst = max(worst, time.Since(t0))
	}
	if h.Server().FallbackBytes() == 0 {
		t.Fatal("the poisoned solve built no float64 fallback")
	}
	if worst > build/3 {
		t.Fatalf("a Stats call took %v while a %v fallback factorization was in flight", worst, build)
	}
}
