package native

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"sptrsv/internal/chol"
	"sptrsv/internal/core"
	"sptrsv/internal/machine"
	"sptrsv/internal/mapping"
	"sptrsv/internal/mesh"
	"sptrsv/internal/order"
	"sptrsv/internal/rowops"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// setupAmalgamated builds an ordered, analyzed, *amalgamated* and
// numerically factored mesh problem — the fat-supernode configuration the
// harness pipeline runs (symbolic.Amalgamate with the experiments'
// 15%/32 relaxation).
func setupAmalgamated(t testing.TB, prob mesh.Problem) (*sparse.SymCSC, *chol.Factor) {
	t.Helper()
	perm := order.NestedDissectionGeom(prob.A, prob.Geom)
	sym, _, ap := symbolic.Analyze(prob.A.PermuteSym(perm))
	sym = symbolic.Amalgamate(sym, 0.15, 32)
	f, err := chol.Factorize(ap, sym)
	if err != nil {
		t.Fatal(err)
	}
	return ap, f
}

func grid2DProblem(nx, ny int) mesh.Problem {
	return mesh.Problem{Name: "g2d", A: mesh.Grid2D(nx, ny), Geom: mesh.Grid2DGeometry(nx, ny)}
}

// denseReferenceSolve solves A·X = B through the expanded dense factor —
// the sequential dense reference the parallel solvers are cross-checked
// against.
func denseReferenceSolve(f *chol.Factor, b *sparse.Block) *sparse.Block {
	n := f.Sym.N
	l := f.ToDenseL() // row-major n×n
	x := b.Clone()
	m := x.M
	for j := 0; j < n; j++ {
		xj := x.Row(j)
		inv := 1 / l[j*n+j]
		for c := range xj {
			xj[c] *= inv
		}
		for i := j + 1; i < n; i++ {
			lij := l[i*n+j]
			if lij == 0 {
				continue
			}
			xi := x.Row(i)
			for c := 0; c < m; c++ {
				xi[c] -= lij * xj[c]
			}
		}
	}
	for j := n - 1; j >= 0; j-- {
		xj := x.Row(j)
		for i := j + 1; i < n; i++ {
			lij := l[i*n+j]
			if lij == 0 {
				continue
			}
			xi := x.Row(i)
			for c := 0; c < m; c++ {
				xj[c] -= lij * xi[c]
			}
		}
		inv := 1 / l[j*n+j]
		for c := range xj {
			xj[c] *= inv
		}
	}
	return x
}

// simulatorP1Solve runs the virtual-machine pipelined solver at p=1 on
// the same numeric factor — the reference execution the native engine
// reproduces bit for bit.
func simulatorP1Solve(t testing.TB, f *chol.Factor, b *sparse.Block) *sparse.Block {
	t.Helper()
	asn := mapping.SubtreeToSubcube(f.Sym, 1)
	df := core.DistributeRows(f, asn, 8)
	sv := core.NewSolver(df, core.Options{B: 8})
	mach := machine.New(1, machine.Zero())
	x, _ := sv.Solve(mach, b)
	return x
}

func residual(a *sparse.SymCSC, x, b *sparse.Block) float64 {
	r := sparse.NewBlock(b.N, b.M)
	a.MulBlock(x, r)
	r.AddScaled(-1, b)
	return r.NormInf() / b.NormInf()
}

// TestMultiRHSAmalgamatedVsDenseReference is the issue's coverage target:
// forward+backward multi-RHS solves (m ∈ {1, 4, 30}) over an amalgamated
// symbolic factor, cross-checked against the sequential dense reference,
// on 8 workers (the configuration `make check` also runs under -race).
func TestMultiRHSAmalgamatedVsDenseReference(t *testing.T) {
	a, f := setupAmalgamated(t, grid2DProblem(21, 21))
	sv := NewSolver(f, Options{Workers: 8})
	for _, m := range []int{1, 4, 30} {
		t.Run(fmt.Sprintf("nrhs=%d", m), func(t *testing.T) {
			b := mesh.RandomRHS(f.Sym.N, m, int64(m))
			x, st := sv.Solve(b)
			want := denseReferenceSolve(f, b)
			if d := x.MaxAbsDiff(want); d > 1e-10 {
				t.Fatalf("m=%d: max |native - dense reference| = %g", m, d)
			}
			if r := residual(a, x, b); r > 1e-10 {
				t.Fatalf("m=%d: residual %g", m, r)
			}
			if st.Workers != 8 || st.Supernodes != f.Sym.NSuper {
				t.Fatalf("stats = %+v", st)
			}
			if st.Tasks != sv.Tasks() || st.Tasks > f.Sym.NSuper || st.Tasks < 1 {
				t.Fatalf("task count %d out of range (NSuper=%d)", st.Tasks, f.Sym.NSuper)
			}
		})
	}
}

// TestBitwiseMatchesSimulator pins the determinism guarantee: for every
// worker count the native solution is bitwise identical to the
// virtual-time simulator's p=1 execution on the same factor. The widths
// reach the m = 1 bodies and every way the panel and block primitives
// split a row into chunks: one ragged or full chunk (the 8-row tiles),
// groups of 2, 4 and 8 with and without a ragged last chunk, and a last
// single chunk after a group. The cube's top supernodes have more than
// four rows below a partial-sum block, and a count of them that is not a
// multiple of four; the 9×9×9 cube has a supernode spanning three panels.
func TestBitwiseMatchesSimulator(t *testing.T) {
	for _, prob := range []mesh.Problem{
		grid2DProblem(17, 13),
		{Name: "cube", A: mesh.Grid3D(7, 7, 7), Geom: mesh.Grid3DGeometry(7, 7, 7)},
		{Name: "cube9", A: mesh.Grid3D(9, 9, 9), Geom: mesh.Grid3DGeometry(9, 9, 9)},
	} {
		_, f := setupAmalgamated(t, prob)
		if prob.Name == "cube9" {
			widest := 0
			for s := range f.Sym.NSuper {
				widest = max(widest, f.Sym.Width(s))
			}
			if widest <= 2*rowops.Panel {
				t.Fatalf("cube9: the widest supernode has %d columns, want one spanning three panels", widest)
			}
		}
		if prob.Name == "cube" {
			grouped, remainder := false, false
			for s := range f.Sym.NSuper {
				below := f.Sym.Height(s) - f.Sym.Width(s)
				grouped = grouped || below > 4
				remainder = remainder || (below > 4 && below%4 != 0)
			}
			if !grouped || !remainder {
				t.Fatalf("cube: no supernode with more than four rows below it (groups %v, remainder %v)", grouped, remainder)
			}
		}
		for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 30, 33} {
			b := mesh.RandomRHS(f.Sym.N, m, 7)
			want := simulatorP1Solve(t, f, b)
			for _, w := range []int{1, 2, 3, 8, 16} {
				sv := NewSolver(f, Options{Workers: w})
				x, _ := sv.Solve(b)
				for i, v := range x.Data {
					if v != want.Data[i] {
						t.Fatalf("%s m=%d workers=%d: entry %d differs bitwise: %x vs %x",
							prob.Name, m, w, i, v, want.Data[i])
					}
				}
			}
		}
	}
}

// TestRepeatedSolvesIdentical re-runs the same solve on one Solver: task
// interleaving must never leak into the numerics.
func TestRepeatedSolvesIdentical(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(15, 15))
	sv := NewSolver(f, Options{Workers: 8})
	b := mesh.RandomRHS(f.Sym.N, 3, 11)
	x0, _ := sv.Solve(b)
	for rep := 0; rep < 5; rep++ {
		x, _ := sv.Solve(b)
		for i, v := range x.Data {
			if v != x0.Data[i] {
				t.Fatalf("rep %d: entry %d nondeterministic", rep, i)
			}
		}
	}
}

// TestExactSupernodes runs the solver without amalgamation (chains of
// thin supernodes — many tiny tasks, deep dependency chains).
func TestExactSupernodes(t *testing.T) {
	prob := grid2DProblem(13, 17)
	perm := order.NestedDissectionGeom(prob.A, prob.Geom)
	sym, _, ap := symbolic.Analyze(prob.A.PermuteSym(perm))
	f, err := chol.Factorize(ap, sym)
	if err != nil {
		t.Fatal(err)
	}
	b := mesh.RandomRHS(sym.N, 2, 3)
	x, _ := NewSolver(f, Options{Workers: 8}).Solve(b)
	if r := residual(ap, x, b); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
}

// TestDiagonalForest exercises a forest-shaped DAG: a diagonal matrix has
// N single-column supernodes, all of them simultaneously leaves and roots.
func TestDiagonalForest(t *testing.T) {
	n := 64
	tr := sparse.NewTriplet(n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, float64(i+2))
	}
	a := tr.Compile()
	sym, _, ap := symbolic.Analyze(a)
	f, err := chol.Factorize(ap, sym)
	if err != nil {
		t.Fatal(err)
	}
	b := mesh.RandomRHS(n, 2, 5)
	x, _ := NewSolver(f, Options{Workers: 8}).Solve(b)
	if r := residual(ap, x, b); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
}

// TestDenseSingleSupernode runs the degenerate single-task DAG (the
// paper's dense reference point).
func TestDenseSingleSupernode(t *testing.T) {
	n := 48
	sym := symbolic.Dense(n)
	// build a well-conditioned dense SPD matrix
	tr := sparse.NewTriplet(n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, float64(n))
		for j := 0; j < i; j++ {
			tr.Add(i, j, -0.3)
		}
	}
	a := tr.Compile()
	f, err := chol.Factorize(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	b := mesh.RandomRHS(n, 4, 9)
	x, _ := NewSolver(f, Options{Workers: 4}).Solve(b)
	if r := residual(a, x, b); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
}

// TestRHSNotModified ensures Solve leaves its input block untouched.
func TestRHSNotModified(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(9, 9))
	b := mesh.RandomRHS(f.Sym.N, 2, 1)
	orig := b.Clone()
	NewSolver(f, Options{Workers: 4}).Solve(b)
	if d := b.MaxAbsDiff(orig); d != 0 {
		t.Fatalf("Solve modified its RHS (max diff %g)", d)
	}
}

// TestRejectsWrongRHSSize checks the shape guard.
func TestRejectsWrongRHSSize(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(5, 5))
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched RHS did not panic")
		}
	}()
	NewSolver(f, Options{}).Solve(sparse.NewBlock(f.Sym.N+1, 1))
}

// TestWorkerDefaults checks the Options fallbacks.
func TestWorkerDefaults(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(5, 5))
	if w := NewSolver(f, Options{}).Workers(); w < 1 {
		t.Fatalf("default worker count %d", w)
	}
	if w := NewSolver(f, Options{Workers: 3}).Workers(); w != 3 {
		t.Fatalf("explicit worker count %d", w)
	}
}

// TestConcurrentSolvesAtTwoWidths is the documented-safe pattern "Solve
// calls from multiple goroutines are safe but serialized" at two RHS
// widths: every solve re-sizes the arena and rebuilds the dispatch census
// under the solve lock, so nothing a solve does before taking that lock —
// the statistics of an early return, a rejected request's included — may
// read either. Run under -race; every answer and its census must be the
// width's own.
func TestConcurrentSolvesAtTwoWidths(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(15, 15))
	sv := NewSolver(f, Options{Workers: 2})
	defer sv.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for m := 1; m <= 2; m++ {
		b := mesh.RandomRHS(f.Sym.N, m, int64(m))
		want, _ := NewSolver(f, Options{Workers: 1}).Solve(b)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				x, st, err := sv.SolveCtx(ctx, b)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(x.Data, want.Data) {
					t.Errorf("m=%d solve %d: answer differs from the lone solve", b.M, i)
					return
				}
				if got := st.KernelTasks[kernelFor(b.M)]; got != int64(f.Sym.NSuper) || st.AllocBytes <= 0 {
					t.Errorf("m=%d solve %d: stats %+v are not this width's", b.M, i, st)
					return
				}
				if _, _, err := sv.SolveCtx(ctx, sparse.NewBlock(f.Sym.N+1, b.M)); err == nil {
					t.Errorf("m=%d: mismatched RHS accepted", b.M)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSolveIntoInPlace pins that x may alias b: SolveInto(ctx, b, b)
// leaves in b the bits a separate solution block receives, at m ∈ {1, 3,
// 30} on one and three workers.
func TestSolveIntoInPlace(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(21, 17))
	ctx := context.Background()
	for _, workers := range []int{1, 3} {
		sv := NewSolver(f, Options{Workers: workers})
		for _, m := range []int{1, 3, 30} {
			b := mesh.RandomRHS(f.Sym.N, m, int64(m))
			want, _, err := sv.SolveCtx(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sv.SolveInto(ctx, b, b); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(b.Data, want.Data) {
				t.Fatalf("workers=%d m=%d: the in-place answer differs bitwise from a separate x", workers, m)
			}
		}
		sv.Close()
	}
}
