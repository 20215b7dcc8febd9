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
// PartialCholesky — nearly all of a multifrontal factorization's time —
// runs on two primitives of internal/rowops. Inside a panel of
// rowops.Panel pivots it uses the forward row primitive, the one the
// one-RHS sweep uses: a front column from its diagonal down is n−k
// one-entry rows, the pivot group's factored columns are the panel
// columns, and its multipliers are the solved entries, lda apart. Beyond
// the panel it makes one rowops.Schur call, which keeps a tile of the
// trailing block in registers across the panel's pivots — the dense
// update reusing what it loads, the BLAS-3 step of a supernodal
// factorization. Both subtract in ascending pivot order with separate
// multiply and subtract, so the factor is bitwise the one the scalar
// loops gave.
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
// The pivots go in panels of rowops.Panel (32), each panel in groups of
// four. Within a group each pivot updates the next pivots of the group at
// once, so the group factors exactly as the unblocked loop would; the
// group's four rank-1 updates then reach the panel's later columns in one
// rank-4 row-primitive call per column. The columns beyond the panel get
// all of the panel's groups from one rowops.Schur call, which holds each
// trailing element in a register across the panel's 32 pivots: loaded and
// stored once per panel instead of once per group. Every subtract stays
// sequential in ascending pivot order, and a column whose four multipliers
// in a group are all zero skips that group as the unblocked loop skips
// each zero, so the result is bitwise identical to the unblocked loop —
// also when a pivot fails mid-panel, where the panel's completed groups
// still reach the columns beyond it before the error returns.
func PartialCholesky(a []float64, lda, n, t int) error {
	return partialCholesky(a, lda, n, t, rowops.F64, rowops.Schur)
}

// partialCholesky is PartialCholesky over the given row and Schur
// primitives.
func partialCholesky(a []float64, lda, n, t int, rows rowops.Kernels[float64], schur rowops.SchurKernel) error {
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
			// Column k from its diagonal down loses cj[k:n]·cj[k].
			rows.Forward(a[k*lda+k:], n-k, cj[k:], lda, cj[k:], lda, 1)
		}
		return nil
	}
	grouped := t &^ (rowops.Block - 1)
	for p0 := 0; p0 < grouped; p0 += rowops.Panel {
		end := min(p0+rowops.Panel, grouped)
		// trail applies the panel's first g groups to the columns beyond it.
		trail := func(g int) {
			if g > 0 && end < n {
				schur(a[end*lda+end:], lda, n-end, a[p0*lda+end:], g)
			}
		}
		for j := p0; j < end; j += 4 {
			for jj := j; jj < j+4; jj++ {
				if err := pivot(jj, j+4); err != nil {
					trail((j - p0) / 4)
					return err
				}
			}
			for k := j + 4; k < end; k++ {
				// Row k of the group's four columns holds both the
				// multipliers (the solved entries, lda apart) and the start
				// of the columns they scale: column k from its diagonal
				// down is n−k one-entry rows.
				l := a[j*lda+k:]
				if l[0] == 0 && l[lda] == 0 && l[2*lda] == 0 && l[3*lda] == 0 {
					continue
				}
				rows.Forward(a[k*lda+k:], n-k, l, lda, l, lda, 4)
			}
		}
		trail((end - p0) / 4)
	}
	for j := grouped; j < t; j++ {
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
