package native

import (
	"context"
	"math"
	"testing"

	"sptrsv/internal/chol"
	"sptrsv/internal/mesh"
	"sptrsv/internal/rowops"
)

// The tests in this file pin the zero-allocation steady state the arena
// buys: once a Solver has solved at a given RHS width, repeated
// SolveInto calls at that width perform no heap allocations at all —
// sequential path, pooled path, single and multi RHS alike — and
// SolveCtx allocates only its result block.

func warmSolver(t *testing.T, prec Precision, workers, grain, m int) (*Solver, func()) {
	t.Helper()
	_, f := setupAmalgamated(t, grid2DProblem(21, 17))
	sv := NewSolver(f, Options{Workers: workers, Precision: prec, grain: grain})
	b := mesh.RandomRHS(f.Sym.N, m, int64(workers*10+m))
	x := mesh.RandomRHS(f.Sym.N, m, 0)
	ctx := context.Background()
	for i := 0; i < 2; i++ { // arena sizing + pool spawn happen here
		if _, err := sv.SolveInto(ctx, b, x); err != nil {
			t.Fatal(err)
		}
	}
	return sv, func() {
		if _, err := sv.SolveInto(ctx, b, x); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNewSolverAllocsIndependentOfSize pins that building a solver
// allocates a fixed set of objects, nothing per supernode: the
// child→parent scatter maps are the symbolic factor's relative indices,
// not the solver's own.
func TestNewSolverAllocsIndependentOfSize(t *testing.T) {
	allocs := func(side int) float64 {
		_, f := setupAmalgamated(t, grid2DProblem(side, side))
		return testing.AllocsPerRun(5, func() { NewSolver(f, Options{Workers: 4}).Close() })
	}
	if small, large := allocs(15), allocs(63); small != large {
		t.Fatalf("NewSolver allocates %v objects on GRID2D-15 but %v on GRID2D-63", small, large)
	}
}

// TestSolveIntoZeroAllocs covers both value planes: the float32 plane at
// m ≥ 2 widens each panel into the arena, which must not allocate either.
func TestSolveIntoZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		prec       Precision
		workers, m int
	}{
		{PrecisionFloat64, 1, 1}, {PrecisionFloat64, 1, 4}, {PrecisionFloat64, 4, 1}, {PrecisionFloat64, 4, 4},
		// the multi-RHS kernel's narrowest and the paper's width
		{PrecisionFloat64, 1, 2}, {PrecisionFloat64, 4, 2}, {PrecisionFloat64, 1, 30}, {PrecisionFloat64, 4, 30},
		{PrecisionFloat32, 1, 1}, {PrecisionFloat32, 4, 1}, {PrecisionFloat32, 1, 2}, {PrecisionFloat32, 4, 2},
		{PrecisionFloat32, 1, 30}, {PrecisionFloat32, 4, 30},
	} {
		sv, solve := warmSolver(t, tc.prec, tc.workers, 0, tc.m)
		if allocs := testing.AllocsPerRun(10, solve); allocs != 0 {
			t.Errorf("%s workers=%d m=%d: %.0f allocs per warm SolveInto, want 0",
				tc.prec, tc.workers, tc.m, allocs)
		}
		sv.Close()
	}
}

// TestStrategyZeroAllocs extends the warm-solve contract across the grain
// sweep: one task per supernode through the pool, light aggregation, and
// the whole tree in one task on the caller's goroutine allocate nothing
// either — nor, at m = 30 under grain 1, the top of the tree split into
// RHS-lane windows.
func TestStrategyZeroAllocs(t *testing.T) {
	for _, g := range []int{1, 64, math.MaxInt} {
		for _, m := range []int{1, 4, 30} {
			sv, solve := warmSolver(t, PrecisionFloat64, 4, g, m)
			if allocs := testing.AllocsPerRun(10, solve); allocs != 0 {
				t.Errorf("grain=%s m=%d: %.0f allocs per warm SolveInto, want 0", grainName(g), m, allocs)
			}
			if g == 1 && m == 30 {
				if _, st, err := sv.SolveCtx(context.Background(), mesh.RandomRHS(sv.F.Sym.N, m, 1)); err != nil || st.Tasks == sv.Tasks() {
					t.Errorf("grain=1 m=30: no task split (%d tasks, %v)", st.Tasks, err)
				}
			}
			sv.Close()
		}
	}
}

// TestSolveCtxAllocsOnlyResult bounds the allocating wrapper: a warm
// SolveCtx may allocate the result block (header + data slab) and
// nothing else from the solve path.
func TestSolveCtxAllocsOnlyResult(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(21, 17))
	sv := NewSolver(f, Options{Workers: 4})
	defer sv.Close()
	b := mesh.RandomRHS(f.Sym.N, 2, 3)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, _, err := sv.SolveCtx(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := sv.SolveCtx(ctx, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("%.0f allocs per warm SolveCtx, want at most 2 (the result block)", allocs)
	}
}

// TestStatsReportArenaFootprint checks that AllocBytes reflects the
// retained arena and grows with the RHS width.
func TestStatsReportArenaFootprint(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(15, 15))
	sv := NewSolver(f, Options{Workers: 2})
	defer sv.Close()
	ctx := context.Background()
	_, st1, err := sv.SolveCtx(ctx, mesh.RandomRHS(f.Sym.N, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, st4, err := sv.SolveCtx(ctx, mesh.RandomRHS(f.Sym.N, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st1.AllocBytes <= 0 || st4.AllocBytes <= st1.AllocBytes {
		t.Fatalf("arena footprint not monotone in width: m=1 %d bytes, m=4 %d bytes",
			st1.AllocBytes, st4.AllocBytes)
	}
}

// TestArenaBytesIsTheDocumentedSum pins what AllocBytes (and ArenaBytes)
// count: the update stack, one maxHeight×m front and one b×m partial-sum
// scratch per worker, the dependency counters, and on a float32 solver
// one maxHeight×Panel widened panel per worker — every byte the solver
// holds between solves. A float64 solver holds no widened panel. On
// CUBE-9 at m = 30, on one and two workers, the float64 arena is at most
// a third of the Σ Height·m·8 a buffer per supernode would hold.
func TestArenaBytesIsTheDocumentedSum(t *testing.T) {
	for _, tc := range []struct {
		name string
		prob mesh.Problem
	}{
		{"GRID2D-21x17", grid2DProblem(21, 17)},
		{"CUBE-9", mesh.Problem{A: mesh.Grid3D(9, 9, 9), Geom: mesh.Grid3DGeometry(9, 9, 9)}},
	} {
		_, f := setupAmalgamated(t, tc.prob)
		var heights int64
		for s := 0; s < f.Sym.NSuper; s++ {
			heights += int64(f.Sym.Height(s))
		}
		for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
			for _, workers := range []int{1, 2, 3} {
				for _, m := range []int{1, 30} {
					arenaBytesIsTheDocumentedSum(t, tc.name, f, heights, prec, workers, m)
				}
			}
		}
	}
}

func arenaBytesIsTheDocumentedSum(t *testing.T, name string, f *chol.Factor, heights int64, prec Precision, workers, m int) {
	t.Helper()
	sv := NewSolver(f, Options{Workers: workers, Precision: prec})
	_, st, err := sv.SolveCtx(context.Background(), mesh.RandomRHS(f.Sym.N, m, 1))
	sv.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(sv.updRows*m)*8 + int64(workers*sv.maxHeight*m)*8 +
		int64(workers*partialSumBlock*m)*8 + int64(st.Tasks)*4
	if prec == PrecisionFloat32 {
		want += int64(workers*sv.maxHeight*rowops.Panel) * 8
	}
	if st.AllocBytes != want || sv.ArenaBytes() != want {
		t.Errorf("%s %s workers=%d m=%d: AllocBytes %d, ArenaBytes %d; want stack+fronts+scratch+wide+deps = %d",
			name, prec, workers, m, st.AllocBytes, sv.ArenaBytes(), want)
	}
	if (sv.arena.wide != nil) != (prec == PrecisionFloat32) {
		t.Errorf("%s %s workers=%d m=%d: %d widened panels, want them on the float32 plane only",
			name, prec, workers, m, len(sv.arena.wide))
	}
	if name == "CUBE-9" && prec == PrecisionFloat64 && m == 30 && workers <= 2 && 3*st.AllocBytes > heights*int64(m)*8 {
		t.Errorf("CUBE-9 workers=%d m=30: arena %d bytes, above a third of Σ Height·m·8 = %d",
			workers, st.AllocBytes, heights*int64(m)*8)
	}
}
