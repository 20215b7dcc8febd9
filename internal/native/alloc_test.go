package native

import (
	"context"
	"math"
	"testing"

	"sptrsv/internal/mesh"
)

// The tests in this file pin the zero-allocation steady state the arena
// buys: once a Solver has solved at a given RHS width, repeated
// SolveInto calls at that width perform no heap allocations at all —
// sequential path, pooled path, single and multi RHS alike — and
// SolveCtx allocates only its result block.

func warmSolver(t *testing.T, workers, grain, m int) (*Solver, func()) {
	t.Helper()
	_, f := setupAmalgamated(t, grid2DProblem(21, 17))
	sv := NewSolver(f, Options{Workers: workers, grain: grain})
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

func TestSolveIntoZeroAllocs(t *testing.T) {
	for _, tc := range []struct{ workers, m int }{
		{1, 1}, {1, 4}, {4, 1}, {4, 4},
		{1, 2}, {4, 2}, {1, 30}, {4, 30}, // the multi-RHS kernel's narrowest and the paper's width
	} {
		sv, solve := warmSolver(t, tc.workers, 0, tc.m)
		if allocs := testing.AllocsPerRun(10, solve); allocs != 0 {
			t.Errorf("workers=%d m=%d: %.0f allocs per warm SolveInto, want 0",
				tc.workers, tc.m, allocs)
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
			sv, solve := warmSolver(t, 4, g, m)
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
// scratch per worker, and the dependency counters — every width-dependent
// byte the solver holds between solves. On CUBE-9 at m = 30, on one and
// two workers, that is at most a third of the Σ Height·m·8 a buffer per
// supernode would hold.
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
		for _, workers := range []int{1, 2, 3} {
			for _, m := range []int{1, 30} {
				sv := NewSolver(f, Options{Workers: workers})
				_, st, err := sv.SolveCtx(context.Background(), mesh.RandomRHS(f.Sym.N, m, 1))
				sv.Close()
				if err != nil {
					t.Fatal(err)
				}
				want := int64(sv.updRows*m)*8 + int64(workers*sv.maxHeight*m)*8 +
					int64(workers*partialSumBlock*m)*8 + int64(st.Tasks)*4
				if st.AllocBytes != want || sv.ArenaBytes() != want {
					t.Errorf("%s workers=%d m=%d: AllocBytes %d, ArenaBytes %d; want stack+fronts+scratch+deps = %d",
						tc.name, workers, m, st.AllocBytes, sv.ArenaBytes(), want)
				}
				if tc.name == "CUBE-9" && m == 30 && workers <= 2 && 3*st.AllocBytes > heights*int64(m)*8 {
					t.Errorf("CUBE-9 workers=%d m=30: arena %d bytes, above a third of Σ Height·m·8 = %d",
						workers, st.AllocBytes, heights*int64(m)*8)
				}
			}
		}
	}
}
