// Quickstart: solve a small sparse SPD system end to end with the
// parallel direct solver, following the paper's four phases — reordering,
// symbolic factorization, numerical factorization, and forward/backward
// substitution — on a simulated 4-processor distributed-memory machine.
package main

import (
	"fmt"
	"log"

	"sptrsv/internal/core"
	"sptrsv/internal/machine"
	"sptrsv/internal/mapping"
	"sptrsv/internal/mesh"
	"sptrsv/internal/order"
	"sptrsv/internal/parfact"
	"sptrsv/internal/redist"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

func main() {
	log.SetFlags(0)

	// A small model problem: the 5-point Laplacian on a 16×16 grid.
	nx, ny := 16, 16
	a := mesh.Grid2D(nx, ny)
	geom := mesh.Grid2DGeometry(nx, ny)
	fmt.Printf("matrix: %d×%d Poisson grid, N = %d, nnz = %d\n", nx, ny, a.N, a.NNZFull())

	// Phase 1 — reordering: nested dissection gives the balanced
	// elimination tree that subtree-to-subcube mapping relies on.
	perm := order.NestedDissectionGeom(a, geom)
	ap := a.PermuteSym(perm)

	// Phase 2 — symbolic factorization: fill pattern, supernodes, tree.
	sym, post, ap := symbolic.Analyze(ap)
	sym = symbolic.Amalgamate(sym, 0.15, 32)
	fmt.Printf("symbolic: nnz(L) = %d, %d supernodes, etree height %d\n",
		sym.NnzL, sym.NSuper, sym.Tree.Height())

	// The full ordering is perm∘post: row k of the permuted system is row
	// perm[post[k]] of the original.
	full := make([]int, len(perm))
	for k := range full {
		full[k] = perm[post[k]]
	}

	// Map supernodes onto a 4-processor virtual machine.
	p := 4
	asn := mapping.SubtreeToSubcube(sym, p)
	mach := machine.New(p, machine.T3D())

	// Phase 3 — parallel multifrontal Cholesky (2-D block-cyclic fronts).
	f2d, fstats, err := parfact.Factorize(mach, ap, sym, asn, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("factorization: %.4f virtual s, %.1f MFLOPS\n", fstats.Time, fstats.MFLOPS())

	// Convert L to the solvers' 1-D row-block-cyclic layout (paper §4).
	df, rstats := redist.ConvertTo(mach, f2d, 4)
	fmt.Printf("redistribution: %.4f virtual s, %d words moved\n", rstats.Time, rstats.Words)

	// Phase 4 — parallel forward elimination and back substitution.
	// Build a right-hand side with known solution x* = 1,2,3,...
	xstar := sparse.NewBlock(a.N, 1)
	for i := 0; i < a.N; i++ {
		xstar.Data[i] = float64(i + 1)
	}
	b := sparse.NewBlock(a.N, 1)
	a.MulBlock(xstar, b)

	// Permute b into the solver ordering, solve, and permute back.
	bp := b.PermuteRows(full)
	solver := core.NewSolver(df, core.Options{B: 4})
	xp, sstats := solver.Solve(mach, bp)
	x := xp.PermuteRows(sparse.InvertPerm(full))
	fmt.Printf("FBsolve: %.4f virtual s, %.1f MFLOPS\n", sstats.Time, sstats.MFLOPS())

	// Verify.
	if d := x.MaxAbsDiff(xstar); d < 1e-9 {
		fmt.Printf("solution recovered: max |x - x*| = %.2g  ✓\n", d)
	} else {
		log.Fatalf("solve failed: max |x - x*| = %g", x.MaxAbsDiff(xstar))
	}
}
