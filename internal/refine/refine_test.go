package refine

import (
	"math"
	"testing"

	"sptrsv/internal/chol"
	"sptrsv/internal/core"
	"sptrsv/internal/machine"
	"sptrsv/internal/mapping"
	"sptrsv/internal/mesh"
	"sptrsv/internal/order"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// sequentialSolver adapts the sequential supernodal solver. A breakdown
// error leaves b partially solved; the refinement loop then observes a
// stagnant or non-finite residual and stops with the matching Reason.
func sequentialSolver(f *chol.Factor) Solver {
	return func(b *sparse.Block) *sparse.Block {
		_ = f.Solve(b)
		return b
	}
}

func setupSeq(t *testing.T, a *sparse.SymCSC, g *mesh.Geometry) (*sparse.SymCSC, Solver) {
	t.Helper()
	perm := order.NestedDissectionGeom(a, g)
	sym, _, ap := symbolic.Analyze(a.PermuteSym(perm))
	f, err := chol.Factorize(ap, sym)
	if err != nil {
		t.Fatal(err)
	}
	return ap, sequentialSolver(f)
}

func TestRefineConvergesImmediately(t *testing.T) {
	ap, solve := setupSeq(t, mesh.Grid2D(10, 10), mesh.Grid2DGeometry(10, 10))
	b := mesh.RandomRHS(ap.N, 2, 1)
	res := Solve(ap, solve, b, 5, 1e-12)
	if !res.Converged {
		t.Fatalf("well-conditioned system should converge: residuals %v", res.Residuals)
	}
	if res.Residuals[len(res.Residuals)-1] > 1e-12 {
		t.Fatalf("final residual %g", res.Residuals[len(res.Residuals)-1])
	}
	if res.Reason != ReasonConverged {
		t.Fatalf("reason %q, want %q", res.Reason, ReasonConverged)
	}
}

func TestRefineImprovesPerturbedFactor(t *testing.T) {
	// Perturb the factor to emulate a low-precision factorization; the
	// refinement loop must recover accuracy through repeated solves.
	a := mesh.Anisotropic2D(20, 20, 1, 1e-4)
	g := mesh.Grid2DGeometry(20, 20)
	perm := order.NestedDissectionGeom(a, g)
	sym, _, ap := symbolic.Analyze(a.PermuteSym(perm))
	f, err := chol.Factorize(ap, sym)
	if err != nil {
		t.Fatal(err)
	}
	for s := range f.Panels {
		for i := range f.Panels[s] {
			f.Panels[s][i] *= 1 + 1e-6 // ~6 digits of factor noise
		}
	}
	b := mesh.RandomRHS(ap.N, 1, 3)
	res := Solve(ap, sequentialSolver(f), b, 10, 1e-11)
	first := res.Residuals[0]
	last := res.Residuals[len(res.Residuals)-1]
	if !(last < first/10) {
		t.Fatalf("refinement did not improve: %v", res.Residuals)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %v", res.Residuals)
	}
}

func TestRefineStopsOnStagnation(t *testing.T) {
	// A grossly wrong "solver" cannot reduce the residual: the loop must
	// stop early rather than run all iterations.
	a := mesh.Grid2D(6, 6)
	bogus := func(b *sparse.Block) *sparse.Block { return b } // identity
	b := mesh.RandomRHS(a.N, 1, 4)
	res := Solve(a, bogus, b, 50, 1e-12)
	if res.Converged {
		t.Fatal("identity solver cannot converge")
	}
	if res.Iters >= 50 {
		t.Fatalf("stagnation not detected (ran %d iters)", res.Iters)
	}
	if res.Reason != ReasonStagnated {
		t.Fatalf("reason %q, want %q", res.Reason, ReasonStagnated)
	}
}

func TestRefineReasonNonFiniteInitial(t *testing.T) {
	// A solver that poisons its output with NaN: the very first residual
	// is non-finite and the loop must stop immediately with the reason
	// recorded, instead of feeding NaN corrections back in.
	a := mesh.Grid2D(6, 6)
	poison := func(b *sparse.Block) *sparse.Block {
		b.Data[0] = math.NaN()
		return b
	}
	b := mesh.RandomRHS(a.N, 1, 9)
	res := Solve(a, poison, b, 10, 1e-12)
	if res.Converged {
		t.Fatal("poisoned solver cannot converge")
	}
	if res.Reason != ReasonNonFinite {
		t.Fatalf("reason %q, want %q", res.Reason, ReasonNonFinite)
	}
	if res.Iters != 0 {
		t.Fatalf("ran %d iterations on a NaN residual", res.Iters)
	}
	if last := res.Residuals[len(res.Residuals)-1]; !math.IsNaN(last) {
		t.Fatalf("recorded residual %g, want NaN", last)
	}
}

func TestRefineReasonNonFiniteMidLoop(t *testing.T) {
	// The first solve is fine; the first *refinement* solve poisons its
	// correction — the NaN must be detected on the next residual.
	ap, good := setupSeq(t, mesh.Grid2D(8, 8), mesh.Grid2DGeometry(8, 8))
	calls := 0
	flaky := func(b *sparse.Block) *sparse.Block {
		calls++
		if calls == 1 {
			x := good(b)
			x.Data[0] += 1 // spoil accuracy so refinement iterates
			return x
		}
		b.Data[0] = math.Inf(1)
		return b
	}
	b := mesh.RandomRHS(ap.N, 1, 10)
	res := Solve(ap, flaky, b, 10, 1e-14)
	if res.Converged {
		t.Fatal("flaky solver cannot converge")
	}
	if res.Reason != ReasonNonFinite {
		t.Fatalf("reason %q, want %q (residuals %v)", res.Reason, ReasonNonFinite, res.Residuals)
	}
	if res.Iters != 1 {
		t.Fatalf("stopped after %d iterations, want 1", res.Iters)
	}
}

func TestRefineWithParallelSolver(t *testing.T) {
	// the parallel machine solver as the refinement engine
	a := mesh.Grid2D(12, 12)
	g := mesh.Grid2DGeometry(12, 12)
	perm := order.NestedDissectionGeom(a, g)
	sym, _, ap := symbolic.Analyze(a.PermuteSym(perm))
	f, err := chol.Factorize(ap, sym)
	if err != nil {
		t.Fatal(err)
	}
	asn := mapping.SubtreeToSubcube(sym, 8)
	df := core.DistributeRows(f, asn, 4)
	sv := core.NewSolver(df, core.Options{B: 4})
	mach := machine.New(8, machine.T3D())
	parallel := func(b *sparse.Block) *sparse.Block {
		x, _ := sv.Solve(mach, b)
		return x
	}
	b := mesh.RandomRHS(ap.N, 3, 5)
	res := Solve(ap, parallel, b, 5, 1e-12)
	if !res.Converged {
		t.Fatalf("parallel-refined solve did not converge: %v", res.Residuals)
	}
}

func TestRefineZeroRHS(t *testing.T) {
	ap, solve := setupSeq(t, mesh.Grid2D(5, 5), mesh.Grid2DGeometry(5, 5))
	b := sparse.NewBlock(ap.N, 1) // zero RHS
	res := Solve(ap, solve, b, 3, 1e-12)
	if !res.Converged {
		t.Fatal("zero RHS must converge immediately")
	}
	if res.X.NormInf() > 1e-12 {
		t.Fatal("zero RHS must give zero solution")
	}
}

// TestToleranceRule pins the one acceptance rule every rung of the
// degradation ladder is verified by: a residual equal to tol is
// accepted, one just above it is not, and NaN and +Inf never are. On
// the 1×1 system [1]·x = 1 the residual of a candidate x is exactly
// |1 − x|, so each case hits its residual bit for bit; maxIter 0 only
// verifies.
func TestToleranceRule(t *testing.T) {
	tr := sparse.NewTriplet(1)
	tr.Add(0, 0, 1)
	a := tr.Compile()
	b := sparse.BlockFromVec([]float64{1})
	never := func(*sparse.Block) *sparse.Block { panic("maxIter 0 must not solve") }
	for _, tc := range []struct {
		name      string
		x, tol    float64
		converged bool
		reason    Reason
	}{
		{"r == tol", 0.5, 0.5, true, ReasonConverged},
		{"r just above tol", 0.5, math.Nextafter(0.5, 0), false, ReasonMaxIter},
		{"r below tol", 0.75, 0.5, true, ReasonConverged},
		{"NaN", math.NaN(), 0.5, false, ReasonNonFinite},
		{"+Inf", math.Inf(1), math.MaxFloat64, false, ReasonNonFinite},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := Continue(a, never, b, sparse.BlockFromVec([]float64{tc.x}), nil, nil, 0, tc.tol)
			if res.Converged != tc.converged || res.Reason != tc.reason || res.Iters != 0 {
				t.Fatalf("residual %g against tol %g: converged %v (%s)", res.Residuals[0], tc.tol, res.Converged, res.Reason)
			}
		})
	}
}

// TestAcceptancePerColumn: a block's residual is its worst column's own
// ratio. On [1]·x = b with columns b = (1e8, 1) and x = (1e8, 0.5) the
// block ratio ‖r‖∞/‖b‖∞ is 5e-9, but the second column's is 0.5 — so
// tolerance 1e-6 must not accept the block.
func TestAcceptancePerColumn(t *testing.T) {
	tr := sparse.NewTriplet(1)
	tr.Add(0, 0, 1)
	a := tr.Compile()
	b := &sparse.Block{N: 1, M: 2, Data: []float64{1e8, 1}}
	x := &sparse.Block{N: 1, M: 2, Data: []float64{1e8, 0.5}}
	never := func(*sparse.Block) *sparse.Block { panic("maxIter 0 must not solve") }
	res := Continue(a, never, b, x, nil, nil, 0, 1e-6)
	if res.Converged || res.Residuals[0] != 0.5 {
		t.Fatalf("converged %v at residual %g, want a miss at the second column's 0.5", res.Converged, res.Residuals[0])
	}
	x.Data[1] = 1
	if res := Continue(a, never, b, x, nil, nil, 0, 1e-6); !res.Converged || res.Residuals[0] != 0 {
		t.Fatalf("exact block: converged %v at %g", res.Converged, res.Residuals[0])
	}
}

// TestContinueReusesHistory: verification into a kept history and
// residual block allocates nothing.
func TestContinueReusesHistory(t *testing.T) {
	ap, solve := setupSeq(t, mesh.Grid2D(10, 10), mesh.Grid2DGeometry(10, 10))
	b := mesh.RandomRHS(ap.N, 1, 1)
	x := solve(b.Clone())
	r := sparse.NewBlock(b.N, b.M)
	hist := Continue(ap, solve, b, x, r, nil, 0, 1e-10).Residuals
	if allocs := testing.AllocsPerRun(10, func() {
		hist = Continue(ap, solve, b, x, r, hist, 0, 1e-10).Residuals
	}); allocs != 0 || len(hist) != 1 {
		t.Fatalf("%.1f allocations, history %v", allocs, hist)
	}
}
