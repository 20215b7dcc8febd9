package chol

import (
	"fmt"
	"math"

	"sptrsv/internal/sparse"
)

// This file defines the structured failure vocabulary of the factorization
// and the triangular solvers. A production direct solver must treat
// numerical breakdown as a first-class event: an ill-conditioned or
// corrupted factor silently turns every downstream right-hand side into
// garbage unless the solve itself fails loudly. Both the sequential sweeps here and the shared-memory
// engine of package native return *BreakdownError, so callers can match
// with errors.As regardless of which path produced the answer.

// BreakdownError reports numerical breakdown during a triangular solve:
// a zero or non-finite pivot on the factor diagonal, or a non-finite
// entry found by the final solution scan. Value holds the offending
// number (0, NaN, or ±Inf).
type BreakdownError struct {
	// Supernode is the supernodal panel where breakdown was detected
	// (-1 for the non-supernodal column-wise baseline).
	Supernode int
	// Column is the global column index of the offending pivot or
	// solution row.
	Column int
	// Pivot is the offending value: 0, NaN, or ±Inf.
	Pivot float64
}

func (e *BreakdownError) Error() string {
	return fmt.Sprintf("numerical breakdown: supernode %d, column %d, value %v",
		e.Supernode, e.Column, e.Pivot)
}

// PatternError reports a matrix whose sparsity pattern is incompatible
// with the symbolic analysis: Factorize or Refactorize was asked to place
// a nonzero the symbolic pattern cannot hold. Callers match it with
// errors.As to distinguish "re-run the full ingest pipeline" from
// numerical breakdown.
type PatternError struct {
	// Reason is "dim" (matrix size differs from the symbolic size) or
	// "entry" (a nonzero falls outside its supernode's row pattern).
	Reason string
	// Row, Col locate the offending entry and Super its supernode when
	// Reason == "entry".
	Row, Col, Super int
	// Got, Want carry the mismatched sizes when Reason == "dim".
	Got, Want int
}

func (e *PatternError) Error() string {
	if e.Reason == "dim" {
		return fmt.Sprintf("chol: pattern mismatch: matrix size %d != symbolic size %d", e.Got, e.Want)
	}
	return fmt.Sprintf("chol: pattern mismatch: A(%d,%d) outside supernode %d pattern", e.Row, e.Col, e.Super)
}

// BadPivot reports whether v is unusable as a pivot: exactly zero (the
// reciprocal scaling would produce ±Inf) or non-finite (an upstream
// corruption that would poison the whole sweep).
func BadPivot(v float64) bool {
	return v == 0 || math.IsNaN(v) || math.IsInf(v, 0)
}

// checkPivots scans supernode s's diagonal for unusable pivots before the
// dense trapezoid kernels divide by them. The scan is O(width) per
// supernode — negligible against the O(nnz·M) sweep it guards.
func (f *Factor) checkPivots(s int) error {
	ns := f.Sym.Height(s)
	t := f.Sym.Width(s)
	j0 := f.Sym.Super[s]
	panel := f.Panels[s]
	for j := 0; j < t; j++ {
		if piv := panel[j*ns+j]; BadPivot(piv) {
			return &BreakdownError{Supernode: s, Column: j0 + j, Pivot: piv}
		}
	}
	return nil
}

// ScanFinite checks every entry of a solution block and returns a
// BreakdownError naming the supernode that owns the first non-finite row,
// so breakdown that slips past the pivot guards (overflow, a poisoned
// off-diagonal panel entry) is never silent. The scan is a single cheap
// pass over N·M values.
func (f *Factor) ScanFinite(b *sparse.Block) error {
	for i, v := range b.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			col := i / b.M
			return &BreakdownError{Supernode: f.Sym.ColToSuper[col], Column: col, Pivot: v}
		}
	}
	return nil
}
