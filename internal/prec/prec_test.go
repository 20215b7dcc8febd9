package prec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/harness"
	"sptrsv/internal/ladder"
	"sptrsv/internal/mesh"
	"sptrsv/internal/native"
	"sptrsv/internal/refine"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// tol is the residual bar the float64 path is held to.
const tol = 1e-10

func TestPolicyParseRoundTrip(t *testing.T) {
	for _, p := range []Policy{PolicyFloat64, PolicyMixed, PolicyAuto} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParsePolicy("float16"); err == nil {
		t.Error("ParsePolicy(\"float16\") accepted an unknown policy")
	}
}

// gridProblem prepares a random-sized 5-point Laplacian: the
// well-conditioned end of the spectrum, where mixed precision must
// always work.
func gridProblem(rng *rand.Rand) *harness.Prepared {
	nx, ny := 2+rng.Intn(11), 2+rng.Intn(11)
	return harness.Prepare(mesh.Problem{
		Name: fmt.Sprintf("grid-%dx%d", nx, ny),
		A:    mesh.Grid2D(nx, ny),
		Geom: mesh.Grid2DGeometry(nx, ny),
	})
}

// hilbertProblem builds the n×n Hilbert matrix (κ₁ ≈ 1.6e13 at n = 10):
// SPD, so Cholesky succeeds, but far beyond the κ·2⁻²⁴ contraction
// horizon, so refinement on a float32 factor is guaranteed to stagnate.
func hilbertProblem(n int) *harness.Prepared {
	t := sparse.NewTriplet(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			t.Add(i, j, 1/float64(i+j+1))
		}
	}
	return &harness.Prepared{Name: fmt.Sprintf("HILBERT-%d", n), A: t.Compile(), Sym: symbolic.Dense(n)}
}

func TestResolvePolicies(t *testing.T) {
	pr := gridProblem(rand.New(rand.NewSource(1)))
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		t.Fatal(err)
	}
	if got := Resolve(PolicyFloat64, pr.A, f); got != native.PrecisionFloat64 {
		t.Errorf("Resolve(float64) = %v", got)
	}
	if got := Resolve(PolicyMixed, pr.A, f); got != native.PrecisionFloat32 {
		t.Errorf("Resolve(mixed) = %v", got)
	}
	// The Laplacian's κ is tiny: auto must admit it to mixed.
	if got := Resolve(PolicyAuto, pr.A, f); got != native.PrecisionFloat32 {
		t.Errorf("Resolve(auto) on a small Laplacian = %v, want float32", got)
	}

	hp := hilbertProblem(10)
	hf, err := chol.Factorize(hp.A, hp.Sym)
	if err != nil {
		t.Fatal(err)
	}
	// Hilbert's κ estimate is ~1e13 ≫ MaxAutoCondition: auto must refuse.
	if got := Resolve(PolicyAuto, hp.A, hf); got != native.PrecisionFloat64 {
		t.Errorf("Resolve(auto) on HILBERT-10 = %v, want float64", got)
	}
}

// mixedGuard factorizes pr, demotes the factor to its float32 plane,
// and returns the f32 solver plus its float64 safety net.
func mixedGuard(t *testing.T, pr *harness.Prepared, opts native.Options) (*native.Solver, *Guard) {
	t.Helper()
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		t.Fatal(err)
	}
	f32 := f.Demote()
	if f32.Panels != nil {
		t.Fatal("Demote left the float64 plane attached")
	}
	opts.Precision = native.PrecisionFloat32
	sv := native.NewSolver(f32, opts)
	t.Cleanup(sv.Close)
	g := NewGuard(pr.A, pr.Sym, opts)
	t.Cleanup(g.Close)
	return sv, g
}

// TestGuardParityRandomProblems is the accuracy-guarantee property
// test: across randomized grid problems and RHS widths 1..9, the mixed
// rung list must land within the refinement tolerance — the same
// residual bar the float64 path is held to — without ever touching the
// float64 fallback, and agree with the float64 solve.
func TestGuardParityRandomProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		pr := gridProblem(rng)
		m := 1 + rng.Intn(9)
		workers := 1 + rng.Intn(3)
		sv, g := mixedGuard(t, pr, native.Options{Workers: workers})

		b := mesh.RandomRHS(pr.A.N, m, int64(trial)+7)
		res, err := ladder.Run(context.Background(), pr.A, g.Rungs(sv), b, tol, nil)
		if err != nil {
			t.Fatalf("trial %d (%s, m=%d): %v", trial, pr.Name, m, err)
		}
		if res.Residual > tol {
			t.Errorf("trial %d (%s, m=%d): residual %.3g > tol (path %s)", trial, pr.Name, m, res.Residual, res.Path)
		}
		if chk := harness.RelResidual(pr.A, res.X, b); chk > tol {
			t.Errorf("trial %d: reported residual %.3g but recomputed %.3g", trial, res.Residual, chk)
		}
		if res.Path != ladder.PathNative && res.Path != ladder.PathMixedRefine {
			t.Errorf("trial %d (%s): well-conditioned solve took path %s", trial, pr.Name, res.Path)
		}
		if g.ExtraBytes() != 0 {
			t.Errorf("trial %d: float64 fallback was built on a well-conditioned problem", trial)
		}

		// Parity with the float64 path: both answers satisfy the same
		// residual bound, so on these mild systems they must agree to
		// well under the forward-error limit.
		f64, err := g.Fallback()
		if err != nil {
			t.Fatal(err)
		}
		x64, _, err := f64.SolveCtx(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		if d := res.X.MaxAbsDiff(x64); d > 1e-6*(1+x64.NormInf()) {
			t.Errorf("trial %d (%s, m=%d): mixed vs float64 solutions differ by %.3g", trial, pr.Name, m, d)
		}
	}
}

// TestGuardContinueBatch covers rung one alone at a batch width,
// refining the whole block in caller-owned scratch.
func TestGuardContinueBatch(t *testing.T) {
	pr := gridProblem(rand.New(rand.NewSource(9)))
	sv, g := mixedGuard(t, pr, native.Options{Workers: 1})
	b := mesh.RandomRHS(pr.A.N, 6, 3)
	ws := &ladder.Scratch{X: sparse.NewBlock(b.N, b.M), R: sparse.NewBlock(b.N, b.M)}
	res, err := ladder.Run(context.Background(), pr.A, g.Rungs(sv)[:1], b, tol, ws)
	if err != nil {
		t.Fatalf("rung one did not converge: %v", err)
	}
	if res.X != ws.X || res.Tried[0].Reason != refine.ReasonConverged {
		t.Fatalf("result %+v: want the scratch block, converged", res)
	}
	if got := harness.RelResidual(pr.A, ws.X, b); got > tol {
		t.Errorf("in-place refinement left residual %.3g", got)
	}
}

// TestGuardStagnationFallback forces PolicyMixed onto HILBERT-10, whose
// κ ≈ 1.6e13 puts float64 accuracy beyond any number of f32 refinement
// sweeps. The refinement loop must detect stagnation (not loop to the
// iteration budget), the float64 fallback must answer, and the answer
// must still meet tolerance — the guarantee the subsystem exists for.
func TestGuardStagnationFallback(t *testing.T) {
	pr := hilbertProblem(10)
	sv, g := mixedGuard(t, pr, native.Options{Workers: 1})
	// A consistent RHS (b = A·1) keeps ‖A‖·‖x‖/‖b‖ moderate, so the
	// float64 side can genuinely reach 1e-10 — with a random b, ‖x‖
	// blows up by κ and no precision meets the tolerance.
	ones := mesh.OnesRHS(pr.A.N, 1)
	b := sparse.NewBlock(pr.A.N, 1)
	pr.A.MulBlock(ones, b)

	res, err := ladder.Run(context.Background(), pr.A, g.Rungs(sv), b, tol, nil)
	if err != nil {
		t.Fatalf("guarded solve failed outright: %v", err)
	}
	first := res.Tried[0]
	if res.Path != ladder.PathFloat64Fallback {
		t.Fatalf("path = %s, want %s (reason %s, residual %.3g)", res.Path, ladder.PathFloat64Fallback, first.Reason, res.Residual)
	}
	if first.Reason != refine.ReasonStagnated && first.Reason != refine.ReasonNonFinite {
		t.Errorf("refinement stopped with %s, want stagnation or non-finite", first.Reason)
	}
	if first.Iters >= ladder.MaxRefineIters {
		t.Errorf("refinement ran %d iterations: the budget, not stagnation, ended it", first.Iters)
	}
	if chk := harness.RelResidual(pr.A, res.X, b); chk > tol || res.Residual > tol {
		t.Errorf("fallback residual %.3g (recomputed %.3g) above tolerance", res.Residual, chk)
	}
	// The degraded matrix now holds both planes; the budget must see it.
	if want := pr.Sym.NnzL * 8; g.ExtraBytes() != want {
		t.Errorf("ExtraBytes = %d, want %d (the float64 factor)", g.ExtraBytes(), want)
	}

	// Second solve reuses the cached fallback: same solver, same path.
	fb, _ := g.Fallback()
	res2, err := ladder.Run(context.Background(), pr.A, g.Rungs(sv), b, tol, nil)
	if fb2, _ := g.Fallback(); err != nil || res2.Path != ladder.PathFloat64Fallback || fb2 != fb {
		t.Errorf("second solve: path %s, err %v, fallback rebuilt: %v", res2.Path, err, fb2 != fb)
	}
}

func TestGuardClose(t *testing.T) {
	pr := gridProblem(rand.New(rand.NewSource(17)))
	_, g := mixedGuard(t, pr, native.Options{Workers: 1})
	g.Close()
	if _, err := g.Fallback(); err == nil {
		t.Error("Fallback after Close did not fail")
	}
}

// TestExtraBytesDoesNotWaitOnFallbackBuild: the registry reads
// ExtraBytes with its own mutex held, so the read must return while a
// fallback build holds the guard's lock — here held by the test itself,
// standing in for a factorization in flight.
func TestExtraBytesDoesNotWaitOnFallbackBuild(t *testing.T) {
	pr := gridProblem(rand.New(rand.NewSource(3)))
	_, g := mixedGuard(t, pr, native.Options{Workers: 1})
	g.mu.Lock()
	got := make(chan int64, 1)
	go func() { got <- g.ExtraBytes() }()
	select {
	case b := <-got:
		if b != 0 {
			t.Errorf("ExtraBytes = %d before any fallback was built", b)
		}
	case <-time.After(5 * time.Second):
		t.Error("ExtraBytes blocked on the guard's build lock")
	}
	g.mu.Unlock()
	if _, err := g.Fallback(); err != nil {
		t.Fatal(err)
	}
	if want := pr.Sym.NnzL * 8; g.ExtraBytes() != want {
		t.Errorf("ExtraBytes = %d after the build, want %d", g.ExtraBytes(), want)
	}
}
