package chol

import (
	"fmt"

	"sptrsv/internal/sparse"
)

// This file provides the non-supernodal baseline the paper's multifrontal
// organization is compared against: the factor expanded to column-
// compressed form and solved one column at a time (pure BLAS-1), with no
// dense trapezoid kernels. The benchmarks quantify the supernodal
// advantage on real hardware; on the virtual machine both charge the same
// model, so the baseline matters for wall-clock kernel comparisons.

// CSCFactor is L in plain compressed-sparse-column form (diagonal first
// in each column).
type CSCFactor struct {
	N      int
	ColPtr []int
	RowIdx []int
	Val    []float64
}

// ToCSC expands the supernodal factor into column-compressed form.
func (f *Factor) ToCSC() *CSCFactor {
	sym := f.Sym
	n := sym.N
	colPtr := make([]int, n+1)
	for s := 0; s < sym.NSuper; s++ {
		t := sym.Width(s)
		ns := sym.Height(s)
		for j := 0; j < t; j++ {
			colPtr[sym.Super[s]+j+1] = ns - j
		}
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	out := &CSCFactor{
		N:      n,
		ColPtr: colPtr,
		RowIdx: make([]int, colPtr[n]),
		Val:    make([]float64, colPtr[n]),
	}
	for s := 0; s < sym.NSuper; s++ {
		rows := sym.Rows[s]
		t := sym.Width(s)
		ns := sym.Height(s)
		for j := 0; j < t; j++ {
			p := colPtr[sym.Super[s]+j]
			for k := j; k < ns; k++ {
				out.RowIdx[p] = rows[k]
				out.Val[p] = f.at(s, j*ns+k)
				p++
			}
		}
	}
	return out
}

// SolveForward solves L·Y = B in place, column by column (BLAS-1). It
// returns an error on a dimension mismatch or a zero/non-finite diagonal
// (*BreakdownError with Supernode = -1: the baseline has no supernodes).
func (c *CSCFactor) SolveForward(b *sparse.Block) error {
	if b.N != c.N {
		return fmt.Errorf("chol: SolveForward dimension mismatch: RHS rows %d != factor size %d", b.N, c.N)
	}
	m := b.M
	for j := 0; j < c.N; j++ {
		p0, p1 := c.ColPtr[j], c.ColPtr[j+1]
		xj := b.Row(j)
		if piv := c.Val[p0]; BadPivot(piv) {
			return &BreakdownError{Supernode: -1, Column: j, Pivot: piv}
		}
		inv := 1 / c.Val[p0]
		for k := 0; k < m; k++ {
			xj[k] *= inv
		}
		for p := p0 + 1; p < p1; p++ {
			lij := c.Val[p]
			if lij == 0 {
				continue
			}
			dst := b.Row(c.RowIdx[p])
			for k := 0; k < m; k++ {
				dst[k] -= lij * xj[k]
			}
		}
	}
	return nil
}

// SolveBackward solves Lᵀ·X = Y in place, column by column. It returns an
// error on a dimension mismatch or a zero/non-finite diagonal.
func (c *CSCFactor) SolveBackward(b *sparse.Block) error {
	if b.N != c.N {
		return fmt.Errorf("chol: SolveBackward dimension mismatch: RHS rows %d != factor size %d", b.N, c.N)
	}
	m := b.M
	for j := c.N - 1; j >= 0; j-- {
		p0, p1 := c.ColPtr[j], c.ColPtr[j+1]
		xj := b.Row(j)
		for p := p0 + 1; p < p1; p++ {
			lij := c.Val[p]
			if lij == 0 {
				continue
			}
			src := b.Row(c.RowIdx[p])
			for k := 0; k < m; k++ {
				xj[k] -= lij * src[k]
			}
		}
		if piv := c.Val[p0]; BadPivot(piv) {
			return &BreakdownError{Supernode: -1, Column: j, Pivot: piv}
		}
		inv := 1 / c.Val[p0]
		for k := 0; k < m; k++ {
			xj[k] *= inv
		}
	}
	return nil
}

// Solve performs forward and backward substitution in place.
func (c *CSCFactor) Solve(b *sparse.Block) error {
	if err := c.SolveForward(b); err != nil {
		return err
	}
	return c.SolveBackward(b)
}

// NNZ returns the number of stored entries (padding zeros included).
func (c *CSCFactor) NNZ() int { return c.ColPtr[c.N] }
