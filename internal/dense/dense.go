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
package dense

import (
	"errors"
	"math"
)

// ErrNotPD is returned when a pivot is not strictly positive.
var ErrNotPD = errors.New("dense: matrix not positive definite")

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
// multifrontal method performs on a frontal matrix.
// The pivot loop is register-blocked in groups of four: each pivot still
// updates the next pivots of its own group immediately (so the group
// factors exactly as the unblocked loop would), but columns beyond the
// group receive all four rank-1 updates in one fused pass that loads and
// stores each trailing element once instead of four times. The subtracts
// stay sequential in ascending pivot order, so the result is bitwise
// identical to the unblocked loop.
func PartialCholesky(a []float64, lda, n, t int) error {
	// pivot factors column j (sqrt + scale) and applies its rank-1
	// update to columns j+1..hi-1 only.
	pivot := func(j, hi int) error {
		cj := a[j*lda:]
		d := cj[j]
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPD
		}
		d = math.Sqrt(d)
		cj[j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			cj[i] *= inv
		}
		for k := j + 1; k < hi; k++ {
			ljk := cj[k]
			if ljk == 0 {
				continue
			}
			ck := a[k*lda:]
			for i := k; i < n; i++ {
				ck[i] -= cj[i] * ljk
			}
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
		c0, c1, c2, c3 := a[j*lda:], a[(j+1)*lda:], a[(j+2)*lda:], a[(j+3)*lda:]
		for k := j + 4; k < n; k++ {
			l0, l1, l2, l3 := c0[k], c1[k], c2[k], c3[k]
			if l0 == 0 && l1 == 0 && l2 == 0 && l3 == 0 {
				continue
			}
			ck := a[k*lda:]
			for i := k; i < n; i++ {
				v := ck[i]
				v -= c0[i] * l0
				v -= c1[i] * l1
				v -= c2[i] * l2
				v -= c3[i] * l3
				ck[i] = v
			}
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
