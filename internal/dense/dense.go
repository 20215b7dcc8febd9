// Package dense provides the small dense kernels that supernodal sparse
// factorization and triangular solution reduce to: in-place Cholesky,
// partial (frontal) Cholesky with Schur-complement update, and triangular
// solves.
//
// Conventions: matrix panels are column-major with an explicit leading
// dimension lda (entry (i,j) at a[j*lda+i]), matching the per-supernode
// trapezoid storage. Right-hand-side blocks are row-major n×m (the M
// values of one matrix row are contiguous), so multi-RHS updates stream
// over contiguous memory — the BLAS-3 effect the paper exploits for
// NRHS > 1.
//
// The trailing updates of PartialCholesky — nearly all of a multifrontal
// factorization's time — run on the forward row primitive of
// internal/rowops, the one the multi-RHS sweeps use: a front column below
// its diagonal is one n−k-wide row, the factored columns are the solved
// rows, lda apart, and the pivot group's multipliers are the panel
// elements. The primitive subtracts in ascending pivot order with separate
// multiply and subtract, so the factor is bitwise the one the scalar loops
// gave.
package dense

import (
	"errors"
	"fmt"
	"math"

	"sptrsv/internal/rowops"
)

// ErrNotPD is matched, under errors.Is, by every error a factorization
// returns for a pivot it cannot take.
var ErrNotPD = errors.New("dense: matrix not positive definite")

// PivotError reports the pivot a factorization stopped at: one that is
// not positive and finite. Column counts from the first column of the
// block PartialCholesky was given; internal/chol returns it with the
// sparse matrix's global column instead.
type PivotError struct {
	Column int
	Pivot  float64 // the diagonal entry before its square root: ≤ 0, NaN or ±Inf
}

func (e *PivotError) Error() string {
	return fmt.Sprintf("%v: column %d, pivot %v", ErrNotPD, e.Column, e.Pivot)
}

func (e *PivotError) Unwrap() error { return ErrNotPD }

// Cholesky factors the leading n×n block of the column-major matrix a
// (leading dimension lda) in place: on return the lower triangle holds L
// with A = L·Lᵀ. The strictly upper triangle is not referenced.
func Cholesky(a []float64, lda, n int) error {
	return PartialCholesky(a, lda, n, n)
}

// PartialCholesky factors the first t columns of the symmetric n×n matrix
// stored in the lower triangle of a (column-major, leading dimension lda)
// and applies the Schur-complement update to the trailing (n−t)×(n−t)
// block: on return columns 0..t-1 hold the first t columns of L and the
// trailing block holds A22 − L21·L21ᵀ. This is exactly the computation a
// multifrontal method performs on a frontal matrix. A pivot that is not
// positive and finite stops it with a *PivotError.
//
// The pivots go in groups of four: each pivot still updates the next
// pivots of its own group immediately (so the group factors exactly as
// the unblocked loop would), but every column beyond the group receives
// the group's four rank-1 updates in one rank-4 row-primitive call, which
// loads and stores each trailing element once instead of four times. The
// subtracts stay sequential in ascending pivot order, and a column whose
// multipliers are all zero is skipped as the unblocked loop skips each
// zero, so the result is bitwise identical to the unblocked loop.
func PartialCholesky(a []float64, lda, n, t int) error {
	return partialCholesky(a, lda, n, t, rowops.F64)
}

// partialCholesky is PartialCholesky over the given row primitives.
func partialCholesky(a []float64, lda, n, t int, rows rowops.Kernels[float64]) error {
	// pivot factors column j (sqrt + scale) and applies its rank-1
	// update to columns j+1..hi-1 only.
	pivot := func(j, hi int) error {
		cj := a[j*lda:]
		d := cj[j]
		if !(d > 0) || math.IsInf(d, 1) {
			return &PivotError{Column: j, Pivot: d}
		}
		d = math.Sqrt(d)
		cj[j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			cj[i] *= inv
		}
		for k := j + 1; k < hi; k++ {
			if cj[k] == 0 {
				continue
			}
			// Column k from its diagonal down loses cj[k]·cj[k:n].
			rows.Forward(a[k*lda+k:], 1, n-k, cj[k:], lda, cj[k:], lda, 1)
		}
		return nil
	}
	j := 0
	for ; j+4 <= t; j += 4 {
		for jj := j; jj < j+4; jj++ {
			if err := pivot(jj, j+4); err != nil {
				return err
			}
		}
		for k := j + 4; k < n; k++ {
			// Row k of the group's four columns holds both the multipliers
			// (one per column, lda apart) and the start of the rows they
			// scale.
			l := a[j*lda+k:]
			if l[0] == 0 && l[lda] == 0 && l[2*lda] == 0 && l[3*lda] == 0 {
				continue
			}
			rows.Forward(a[k*lda+k:], 1, n-k, l, lda, l, lda, 4)
		}
	}
	for ; j < t; j++ {
		if err := pivot(j, n); err != nil {
			return err
		}
	}
	return nil
}

// SolveLowerRM solves L·X = B in place, where L is the leading t×t lower
// triangle of the column-major panel l (leading dimension lda) and B is a
// row-major t×m block overwritten with X.
func SolveLowerRM(l []float64, lda, t int, b []float64, m int) {
	for j := 0; j < t; j++ {
		cj := l[j*lda:]
		bj := b[j*m : (j+1)*m]
		inv := 1 / cj[j]
		for c := 0; c < m; c++ {
			bj[c] *= inv
		}
		for i := j + 1; i < t; i++ {
			lij := cj[i]
			if lij == 0 {
				continue
			}
			bi := b[i*m : (i+1)*m]
			for c := 0; c < m; c++ {
				bi[c] -= lij * bj[c]
			}
		}
	}
}

// SolveLowerTransRM solves Lᵀ·X = B in place (B row-major t×m).
func SolveLowerTransRM(l []float64, lda, t int, b []float64, m int) {
	for j := t - 1; j >= 0; j-- {
		cj := l[j*lda:]
		bj := b[j*m : (j+1)*m]
		for i := j + 1; i < t; i++ {
			lij := cj[i]
			if lij == 0 {
				continue
			}
			bi := b[i*m : (i+1)*m]
			for c := 0; c < m; c++ {
				bj[c] -= lij * bi[c]
			}
		}
		inv := 1 / cj[j]
		for c := 0; c < m; c++ {
			bj[c] *= inv
		}
	}
}
