package chol

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"

	"sptrsv/internal/dense"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
	"sptrsv/internal/taskdag"
)

// This file is the numeric supernodal multifrontal factorization: one
// traversal, behind both Factorize and Refactorize. Each supernode
// contributes a frontal matrix that is assembled from the original matrix
// entries and its children's update matrices, partially factored, and
// whose Schur complement is passed up the tree. Every index computation of
// that assembly is done once, ahead of the numeric work: the relative
// indices of each child's extend-add in the symbolic factor (Rel), the
// rest into a plan (a scatter map for the original entries, a static
// update-slab layout); the traversal itself then allocates a fixed
// handful of slabs and no per-supernode object.
// Refactorize is the transient-simulation workload (circuit/time-stepping
// codes re-factor one pattern with new values thousands of times): it
// reuses the plan of the factor it is called on, so its cost approaches
// the PartialCholesky kernels alone.
//
// The traversal runs on the task executor of package taskdag. The plan
// cuts the supernodal tree into tasks by factorization work
// (taskdag.Aggregate): every subtree light enough becomes one task, every
// heavier supernode a task of its own, so sibling subtrees factor on
// different workers while the top separators wait for their children. A
// task runs its supernodes in ascending order (a postorder) on the front
// of the worker running it, and keeps its update matrices in a region of
// the update slab that no task running at the same time writes
// (taskdag.Subtrees.Stack), and a parent task reads a child task's last
// update only after that task completed. Every supernode sees the same operands in the same order at
// any worker count — extend-add follows SChildren, never completion order
// — so the factor is bitwise identical however the tasks are scheduled.
// One worker is the executor's inline path: the tasks in ascending order,
// which is ascending supernode order, on the caller's goroutine.

// plan caches the index computations of the multifrontal traversal for
// one (symbolic structure, matrix pattern) pair: nnz(A) scatter indices,
// and the cut of the tree into tasks (the relative indices depend on the
// structure alone and live in it, sym.Rel). It is immutable once built
// and shared by every Factor descended from the same Factorize; the
// mutable frontal/update workspace lives in the per-call traversal, never
// here.
type plan struct {
	sym    *symbolic.Factor
	colPtr []int // the A pattern the plan was built against
	rowIdx []int
	// asm[p] is the front-local index (lj·ns + fi) where original-matrix
	// nonzero p of A scatters, aligned with A.Val.
	asm []int32
	// cut is the supernodal tree cut into tasks for workers workers.
	cut     *taskdag.Subtrees
	workers int
	// updOff[s] is the offset of supernode s's update matrix in the
	// update slab (taskdag.Subtrees.Stack's layout); updSlab is the slab's
	// length and maxFront the largest ns² front.
	updOff   []int
	updSlab  int
	maxFront int
}

// samePattern reports whether a's pattern is the one the plan was built
// against, with an O(1) pointer fast path for the value-swap case where
// the caller shares the index slices of the original matrix.
func (pl *plan) samePattern(a *sparse.SymCSC) bool {
	if len(a.ColPtr) == len(pl.colPtr) && len(a.RowIdx) == len(pl.rowIdx) &&
		(len(a.ColPtr) == 0 || &a.ColPtr[0] == &pl.colPtr[0]) &&
		(len(a.RowIdx) == 0 || &a.RowIdx[0] == &pl.rowIdx[0]) {
		return true
	}
	return slices.Equal(a.ColPtr, pl.colPtr) && slices.Equal(a.RowIdx, pl.rowIdx)
}

// frontWork estimates the cost of supernode s's front: t pivots, each a
// rank-1 update of the (ns−j)² trailing square, Σ_{j<t} (ns−j)².
func frontWork(sym *symbolic.Factor, s int) int64 {
	sq := func(n int64) int64 { return n * (n + 1) * (2*n + 1) / 6 } // Σ_{k≤n} k²
	ns, t := int64(sym.Height(s)), int64(sym.Width(s))
	return sq(ns) - sq(ns-t)
}

// factorCut cuts the supernodal tree into factorization tasks for the
// given worker count, by front work under taskdag.Cutoff: one worker
// gains nothing from a cut, so there every tree is one task and the
// update slab is one stack.
func factorCut(sym *symbolic.Factor, workers int) *taskdag.Subtrees {
	work := make([]int64, sym.NSuper)
	var total int64
	for s := range work {
		work[s] = frontWork(sym, s)
		total += work[s]
	}
	return taskdag.Aggregate(sym.SParent, work, taskdag.Cutoff(total, workers))
}

// newPlan walks the supernodal tree once, task by task, validating a's
// pattern against the symbolic structure and recording every scatter
// index the numeric traversal will need, then lays out the update slab
// over the cut for the given worker count.
func newPlan(a *sparse.SymCSC, sym *symbolic.Factor, workers int) (*plan, error) {
	if a.N != sym.N {
		return nil, &PatternError{Reason: "dim", Got: a.N, Want: sym.N}
	}
	pl := &plan{
		sym:     sym,
		colPtr:  a.ColPtr,
		rowIdx:  a.RowIdx,
		asm:     make([]int32, len(a.RowIdx)),
		cut:     factorCut(sym, workers),
		workers: workers,
	}
	pos := make([]int, sym.N) // global row -> front-local index scratch
	for i := range pos {
		pos[i] = -1
	}
	for tk := 0; tk < pl.cut.Tasks(); tk++ {
		for _, s := range pl.cut.Members(tk) {
			rows := sym.Rows[s]
			ns := len(rows)
			t := sym.Width(s)
			j0 := sym.Super[s]
			pl.maxFront = max(pl.maxFront, ns*ns)
			for k, r := range rows {
				pos[r] = k
			}
			for j := j0; j < j0+t; j++ {
				lj := j - j0
				for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
					i := a.RowIdx[p]
					fi := pos[i]
					if fi < 0 {
						return nil, &PatternError{Reason: "entry", Row: i, Col: j, Super: s}
					}
					pl.asm[p] = int32(lj*ns + fi)
				}
			}
			for _, r := range rows {
				pos[r] = -1
			}
		}
	}
	pl.updOff, pl.updSlab = pl.cut.Stack(sym.SChildren, func(s int) int {
		nu := sym.Height(s) - sym.Width(s)
		return nu * nu
	})
	return pl, nil
}

// slabPanels carves one zeroed slab into the Height(s)×Width(s) panel of
// every supernode: one allocation per value plane, freed as a unit.
func slabPanels[T float32 | float64](sym *symbolic.Factor) [][]T {
	total := 0
	for s := 0; s < sym.NSuper; s++ {
		total += sym.Height(s) * sym.Width(s)
	}
	slab := make([]T, total)
	panels := make([][]T, sym.NSuper)
	off := 0
	for s := range panels {
		n := sym.Height(s) * sym.Width(s)
		panels[s] = slab[off : off+n : off+n]
		off += n
	}
	return panels
}

// traversal is one numeric run of a plan: the Runner the executor calls,
// holding the output panels and the workspace every task writes into.
type traversal struct {
	pl     *plan
	a      *sparse.SymCSC
	panels [][]float64
	fronts []float64 // one maxFront front per worker, column-major, lda = ns
	upd    []float64 // the update slab: child Schur complements awaiting the parent
}

// factorize is the numeric traversal: it replays the plan on a's values
// and returns a fresh factor carrying the plan.
func (pl *plan) factorize(a *sparse.SymCSC) (*Factor, error) {
	workers := min(pl.workers, pl.cut.Tasks())
	tr := &traversal{
		pl:     pl,
		a:      a,
		panels: slabPanels[float64](pl.sym),
		fronts: make([]float64, workers*pl.maxFront),
		upd:    make([]float64, pl.updSlab),
	}
	err := tr.run(workers)
	if err != nil && workers > 1 {
		// A parallel run stops at whichever failure surfaces first. The
		// one-worker run stops at the lowest failing supernode, so re-run
		// it to report the same error at every worker count.
		err = tr.run(1)
	}
	if err != nil {
		return nil, err
	}
	return &Factor{Sym: pl.sym, Panels: tr.panels, plan: pl}, nil
}

// run executes every task of the cut once on a fresh executor, and stops
// the executor's workers before returning.
func (tr *traversal) run(workers int) error {
	ex := taskdag.NewExecutor(workers)
	defer ex.Close()
	g := &tr.pl.cut.Up
	return ex.Run(context.TODO(), nil, g, make([]int32, g.Tasks()), tr)
}

// RunTask factors the supernodes of one task in ascending order on the
// worker's front. It recovers its own panics, as the executor requires.
func (tr *traversal) RunTask(_ context.Context, worker, task int) (err error) {
	s := -1
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("chol: supernode %d: panic: %v", s, r)
		}
	}()
	mf := tr.pl.maxFront
	front := tr.fronts[worker*mf : (worker+1)*mf]
	for _, s = range tr.pl.cut.Members(task) {
		if err := tr.supernode(s, front); err != nil {
			return err
		}
	}
	return nil
}

// supernode assembles, partially factors and extracts supernode s's front.
func (tr *traversal) supernode(s int, front []float64) error {
	pl, a := tr.pl, tr.a
	sym := pl.sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	fr := front[:ns*ns]
	// Only the lower triangle is ever read (assembly, extend-add,
	// PartialCholesky, and the extractions below all stay on or below the
	// diagonal), so only it needs clearing; the strictly upper part keeps
	// stale garbage harmlessly.
	for j := 0; j < ns; j++ {
		clear(fr[j*ns+j : (j+1)*ns])
	}
	for p := a.ColPtr[j0]; p < a.ColPtr[j0+t]; p++ {
		fr[pl.asm[p]] += a.Val[p]
	}
	// Entry (cj, ci) of child c's update matrix extend-adds into front
	// entry rel[cj]·ns + rel[ci].
	for _, c := range sym.SChildren[s] {
		rel := sym.Rel(c)
		nu := len(rel)
		u := tr.upd[pl.updOff[c]:]
		for cj, fj := range rel {
			col := fr[int(fj)*ns:]
			uc := u[cj*nu : (cj+1)*nu]
			for ci := cj; ci < nu; ci++ {
				col[rel[ci]] += uc[ci]
			}
		}
	}
	if err := dense.PartialCholesky(fr, ns, ns, t); err != nil {
		// Front column j is the matrix's column j0+j.
		var pe *dense.PivotError
		if errors.As(err, &pe) {
			pe.Column += j0
		}
		return fmt.Errorf("chol: supernode %d: %w", s, err)
	}
	// The slab arrives zeroed from make, so the strictly-upper part of each
	// panel's triangular top is already correct; copy each column from the
	// diagonal down (contiguous on both sides).
	panel := tr.panels[s]
	for j := 0; j < t; j++ {
		copy(panel[j*ns+j:(j+1)*ns], fr[j*ns+j:(j+1)*ns])
	}
	if nu := ns - t; nu > 0 {
		u := tr.upd[pl.updOff[s]:]
		for j := 0; j < nu; j++ {
			copy(u[j*nu+j:(j+1)*nu], fr[(t+j)*ns+(t+j):(t+j)*ns+(t+nu)])
		}
	}
	return nil
}

// Factorize computes the supernodal multifrontal Cholesky factorization of
// the (postordered) matrix a, whose symbolic structure is sym: it builds
// the plan for (sym, a's pattern) and runs it on GOMAXPROCS workers, which
// return before it does. A pattern that the symbolic structure cannot hold
// yields a *PatternError before any numeric work; a pivot that is not
// positive and finite stops it with a *dense.PivotError naming the matrix
// column and the pivot value (it matches dense.ErrNotPD under errors.Is),
// wrapped with its supernode — the first such supernode in ascending
// order, at any worker count.
func Factorize(a *sparse.SymCSC, sym *symbolic.Factor) (*Factor, error) {
	return factorize(a, sym, runtime.GOMAXPROCS(0))
}

// factorize is Factorize on the given number of workers. Tests move the
// worker count through it; the factor's bits do not depend on it.
func factorize(a *sparse.SymCSC, sym *symbolic.Factor, workers int) (*Factor, error) {
	pl, err := newPlan(a, sym, workers)
	if err != nil {
		return nil, err
	}
	return pl.factorize(a)
}

// Refactorize computes a fresh numeric factorization of a — a matrix with
// the same sparsity pattern as the one this factor was built from — reusing
// the symbolic analysis, elimination tree, supernode partition and plan. It
// never mutates f: in-flight solves against the old factor stay bitwise
// stable while the caller swaps the returned factor in. It is Factorize(a,
// f.Sym) minus the plan construction — the same traversal on the plan's
// workers, so the same bits and the same errors — and falls back to
// exactly that when a's pattern is not the plan's or f was assembled
// outside this package and carries no plan.
func (f *Factor) Refactorize(a *sparse.SymCSC) (*Factor, error) {
	pl := f.plan
	if pl == nil || !pl.samePattern(a) {
		var err error
		if pl, err = newPlan(a, f.Sym, runtime.GOMAXPROCS(0)); err != nil {
			return nil, err
		}
	}
	nf, err := pl.factorize(a)
	if err != nil {
		return nil, err
	}
	// A factor carrying the float32 plane propagates it: value updates
	// against a demoted (mixed-precision) factor keep working, and the
	// serving layer's swap-in re-demotes without a second conversion pass.
	if f.Panels32 != nil {
		nf.EnsureFloat32()
	}
	return nf, nil
}
