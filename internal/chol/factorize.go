package chol

import (
	"errors"
	"fmt"
	"slices"

	"sptrsv/internal/dense"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// This file is the numeric supernodal multifrontal factorization: one
// traversal, behind both Factorize and Refactorize. Supernodes are
// processed in ascending order (a valid postorder of the supernodal tree);
// each contributes a frontal matrix that is assembled from the original
// matrix entries and the children's update matrices, partially factored,
// and whose Schur complement is passed up the tree. Every index
// computation of that assembly is done once, ahead of the numeric work,
// into a plan (a scatter map for the original entries, the relative
// indices of each child's extend-add, a static multifrontal update-stack
// layout); the traversal itself then allocates a fixed handful of slabs
// and no per-supernode object. Refactorize is the transient-simulation
// workload (circuit/time-stepping codes re-factor one pattern with new
// values thousands of times): it reuses the plan of the factor it is
// called on, so its cost approaches the PartialCholesky kernels alone.

// plan caches every index computation of the multifrontal traversal for
// one (symbolic structure, matrix pattern) pair: nnz(A) + Σ(Height−Width)
// indices. It is immutable once built and shared by every Factor descended
// from the same Factorize; the mutable frontal/update workspace lives in
// the per-call traversal, never here.
type plan struct {
	sym    *symbolic.Factor
	colPtr []int // the A pattern the plan was built against
	rowIdx []int
	// asm[p] is the front-local index (lj·ns + fi) where original-matrix
	// nonzero p of A scatters, aligned with A.Val.
	asm []int32
	// rel holds the multifrontal relative indices: rel[relOff[c]+k] is the
	// position, in the front of c's parent, of c's k-th update row
	// Rows[c][Width(c)+k]. Entry (cj, ci) of c's update matrix extend-adds
	// into parent-front entry rel[cj]·ns + rel[ci].
	rel    []int32
	relOff []int
	// updOff[s] is the offset of supernode s's update matrix in the
	// multifrontal stack slab; updStack is the slab's total (peak) size
	// and maxFront the largest ns² front.
	updOff   []int
	updStack int
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

// newPlan walks the supernodal tree once, validating a's pattern against
// the symbolic structure and recording every scatter index the numeric
// traversal will need.
func newPlan(a *sparse.SymCSC, sym *symbolic.Factor) (*plan, error) {
	if a.N != sym.N {
		return nil, &PatternError{Reason: "dim", Got: a.N, Want: sym.N}
	}
	pl := &plan{
		sym:    sym,
		colPtr: a.ColPtr,
		rowIdx: a.RowIdx,
		asm:    make([]int32, len(a.RowIdx)),
		relOff: make([]int, sym.NSuper),
		updOff: make([]int, sym.NSuper),
	}
	nrel := 0
	for s := range pl.relOff {
		pl.relOff[s] = nrel
		nrel += sym.Height(s) - sym.Width(s)
	}
	pl.rel = make([]int32, nrel)
	pos := make([]int, sym.N) // global row -> front-local index scratch
	for i := range pos {
		pos[i] = -1
	}
	top := 0
	for s := 0; s < sym.NSuper; s++ {
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
		for _, c := range sym.SChildren[s] {
			rel := pl.rel[pl.relOff[c]:]
			for k, r := range sym.Rows[c][sym.Width(c):] {
				rel[k] = int32(pos[r])
			}
		}
		// Child updates obey multifrontal stack discipline under the
		// postorder traversal: when s is reached, its children's updates
		// are the top of the stack, lowest-numbered child deepest.
		if ch := sym.SChildren[s]; len(ch) > 0 {
			top = pl.updOff[ch[0]] // pop all children
		}
		pl.updOff[s] = top
		if nu := ns - t; nu > 0 {
			top += nu * nu
			pl.updStack = max(pl.updStack, top)
		}
		for _, r := range rows {
			pos[r] = -1
		}
	}
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

// factorize is the numeric traversal: it replays the plan on a's values
// and returns a fresh factor carrying the plan.
func (pl *plan) factorize(a *sparse.SymCSC) (*Factor, error) {
	sym := pl.sym
	panels := slabPanels[float64](sym)
	front := make([]float64, pl.maxFront) // column-major, lda = ns
	stack := make([]float64, pl.updStack) // child Schur complements awaiting the parent
	for s := 0; s < sym.NSuper; s++ {
		ns := sym.Height(s)
		t := sym.Width(s)
		j0 := sym.Super[s]
		fr := front[:ns*ns]
		// Only the lower triangle is ever read (assembly, extend-add,
		// PartialCholesky, and the extractions below all stay on or
		// below the diagonal), so only it needs clearing; the strictly
		// upper part keeps stale garbage harmlessly.
		for j := 0; j < ns; j++ {
			clear(fr[j*ns+j : (j+1)*ns])
		}
		for p := a.ColPtr[j0]; p < a.ColPtr[j0+t]; p++ {
			fr[pl.asm[p]] += a.Val[p]
		}
		for _, c := range sym.SChildren[s] {
			nu := sym.Height(c) - sym.Width(c)
			rel := pl.rel[pl.relOff[c]:][:nu]
			u := stack[pl.updOff[c]:]
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
			return nil, fmt.Errorf("chol: supernode %d: %w", s, err)
		}
		// The slab arrives zeroed from make, so the strictly-upper part
		// of each panel's triangular top is already correct; copy each
		// column from the diagonal down (contiguous on both sides).
		panel := panels[s]
		for j := 0; j < t; j++ {
			copy(panel[j*ns+j:(j+1)*ns], fr[j*ns+j:(j+1)*ns])
		}
		if nu := ns - t; nu > 0 {
			u := stack[pl.updOff[s]:]
			for j := 0; j < nu; j++ {
				copy(u[j*nu+j:(j+1)*nu], fr[(t+j)*ns+(t+j):(t+j)*ns+(t+nu)])
			}
		}
	}
	return &Factor{Sym: sym, Panels: panels, plan: pl}, nil
}

// Factorize computes the supernodal multifrontal Cholesky factorization of
// the (postordered) matrix a, whose symbolic structure is sym: it builds
// the plan for (sym, a's pattern) and runs it. A pattern that the symbolic
// structure cannot hold yields a *PatternError before any numeric work; a
// pivot that is not positive and finite stops it with a *dense.PivotError
// naming the matrix column and the pivot value (it matches dense.ErrNotPD
// under errors.Is), wrapped with its supernode.
func Factorize(a *sparse.SymCSC, sym *symbolic.Factor) (*Factor, error) {
	pl, err := newPlan(a, sym)
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
// f.Sym) minus the plan construction — the same traversal, so the same
// bits and the same errors — and falls back to exactly that when a's
// pattern is not the plan's or f was assembled outside this package and
// carries no plan.
func (f *Factor) Refactorize(a *sparse.SymCSC) (*Factor, error) {
	pl := f.plan
	if pl == nil || !pl.samePattern(a) {
		var err error
		if pl, err = newPlan(a, f.Sym); err != nil {
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
