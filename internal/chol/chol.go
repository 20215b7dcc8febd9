// Package chol implements the factorization on the task executor; the
// sequential solves stay the oracle. The supernodal multifrontal Cholesky
// factorization (the paper assumes L was produced by the multifrontal
// factorization of Gupta, Karypis & Kumar) runs sibling subtrees of the
// supernodal tree in parallel on package taskdag, bit for bit the factor
// of one worker. The sequential supernodal forward/backward substitution
// is both the p=1 baseline of every experiment and the correctness oracle
// for the parallel solvers.
package chol

import (
	"fmt"
	"math"

	"sptrsv/internal/dense"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// Factor is the numeric Cholesky factor in supernodal form: Panels[s] is
// the Height(s)×Width(s) dense trapezoid of supernode s, column-major with
// leading dimension Height(s). The strictly-upper part of the t×t top
// block is zero.
type Factor struct {
	Sym    *symbolic.Factor
	Panels [][]float64

	// Panels32 is the optional float32 value plane (same supernodal
	// trapezoid layout as Panels), built by EnsureFloat32 or Demote. A
	// demoted factor carries only Panels32: half the resident bytes and
	// half the memory traffic through the sweeps, with float64 accuracy
	// recovered by iterative refinement (see internal/prec). See f32.go.
	Panels32 [][]float32

	// plan holds the index maps of the multifrontal traversal that built
	// this factor, shared with every factor Refactorize derives from it;
	// nil only on a Factor literal assembled outside this package (see
	// factorize.go).
	plan *plan
}

// at returns entry k of supernode s's panel from whichever value plane is
// present, so LogDet, ToDenseL and ToCSC also serve a demoted factor.
func (f *Factor) at(s, k int) float64 {
	if f.Panels != nil {
		return f.Panels[s][k]
	}
	return float64(f.Panels32[s][k])
}

// NnzL returns the number of stored factor entries (trapezoid entries).
func (f *Factor) NnzL() int64 { return f.Sym.NnzL }

// LogDet returns log(det A) = 2·Σ log L(j,j) — a standard by-product of
// the factorization (Gaussian likelihoods, entropy computations).
func (f *Factor) LogDet() float64 {
	sum := 0.0
	for s := 0; s < f.Sym.NSuper; s++ {
		ns := f.Sym.Height(s)
		t := f.Sym.Width(s)
		for j := 0; j < t; j++ {
			sum += math.Log(f.at(s, j*ns+j))
		}
	}
	return 2 * sum
}

// SolveForward solves L·Y = B in place (B row-major N×M), traversing the
// supernodal tree bottom-up: at each supernode the t×t triangular top is
// solved, then the rectangular bottom updates the right-hand-side rows of
// the ancestor supernodes. It returns an error (instead of panicking or
// producing silent garbage) on a dimension mismatch or a zero/non-finite
// pivot (*BreakdownError).
func (f *Factor) SolveForward(b *sparse.Block) error {
	sym := f.Sym
	if b.N != sym.N {
		return fmt.Errorf("chol: SolveForward dimension mismatch: RHS rows %d != matrix size %d", b.N, sym.N)
	}
	if f.Panels == nil {
		return fmt.Errorf("chol: SolveForward: %w", ErrDemoted)
	}
	m := b.M
	for s := 0; s < sym.NSuper; s++ {
		rows := sym.Rows[s]
		ns := len(rows)
		t := sym.Width(s)
		j0 := sym.Super[s]
		panel := f.Panels[s]
		if err := f.checkPivots(s); err != nil {
			return err
		}
		top := b.Data[j0*m : (j0+t)*m]
		dense.SolveLowerRM(panel, ns, t, top, m)
		// b[rows[k]] -= sum_j panel[j*ns+k] * top[j] for k = t..ns-1
		for j := 0; j < t; j++ {
			cj := panel[j*ns:]
			xj := top[j*m : (j+1)*m]
			for k := t; k < ns; k++ {
				ljk := cj[k]
				if ljk == 0 {
					continue
				}
				dst := b.Row(rows[k])
				for c := 0; c < m; c++ {
					dst[c] -= ljk * xj[c]
				}
			}
		}
	}
	return nil
}

// SolveBackward solves Lᵀ·X = Y in place, traversing the tree top-down: at
// each supernode the top rows gather contributions from ancestor solution
// rows through the rectangular block, then the triangular top is solved
// with Lᵀ. It returns an error on a dimension mismatch or a zero/non-finite
// pivot (*BreakdownError).
func (f *Factor) SolveBackward(b *sparse.Block) error {
	sym := f.Sym
	if b.N != sym.N {
		return fmt.Errorf("chol: SolveBackward dimension mismatch: RHS rows %d != matrix size %d", b.N, sym.N)
	}
	if f.Panels == nil {
		return fmt.Errorf("chol: SolveBackward: %w", ErrDemoted)
	}
	m := b.M
	for s := sym.NSuper - 1; s >= 0; s-- {
		rows := sym.Rows[s]
		ns := len(rows)
		t := sym.Width(s)
		j0 := sym.Super[s]
		top := b.Data[j0*m : (j0+t)*m]
		panel := f.Panels[s]
		if err := f.checkPivots(s); err != nil {
			return err
		}
		// top[j] -= sum_{k>=t} panel[j*ns+k] * b[rows[k]]
		for j := 0; j < t; j++ {
			cj := panel[j*ns:]
			dst := top[j*m : (j+1)*m]
			for k := t; k < ns; k++ {
				ljk := cj[k]
				if ljk == 0 {
					continue
				}
				src := b.Row(rows[k])
				for c := 0; c < m; c++ {
					dst[c] -= ljk * src[c]
				}
			}
		}
		dense.SolveLowerTransRM(panel, ns, t, top, m)
	}
	return nil
}

// Solve performs the complete forward+backward substitution in place:
// on return B holds X with A·X = B_in (for the postordered matrix).
// Breakdown is never silent: beyond the per-supernode pivot guards, a
// final NaN/Inf scan of the solution rejects overflow and poisoned
// off-diagonal entries with a *BreakdownError.
func (f *Factor) Solve(b *sparse.Block) error {
	if err := f.SolveForward(b); err != nil {
		return err
	}
	if err := f.SolveBackward(b); err != nil {
		return err
	}
	return f.ScanFinite(b)
}

// ToDenseL expands L into a full row-major N×N lower-triangular matrix
// (small problems only; used by tests).
func (f *Factor) ToDenseL() []float64 {
	n := f.Sym.N
	out := make([]float64, n*n)
	for s := 0; s < f.Sym.NSuper; s++ {
		rows := f.Sym.Rows[s]
		ns := len(rows)
		t := f.Sym.Width(s)
		j0 := f.Sym.Super[s]
		for j := 0; j < t; j++ {
			for k := j; k < ns; k++ {
				out[rows[k]*n+(j0+j)] = f.at(s, j*ns+k)
			}
		}
	}
	return out
}
