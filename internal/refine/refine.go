// Package refine implements iterative refinement, the standard accuracy
// companion of a direct solver: once A = L·Lᵀ is factored, each extra
// digit of accuracy costs only one more (cheap) pair of triangular solves
// — which is precisely the repeated-solve workload whose parallel cost
// the paper analyzes, and one of the reasons its multi-RHS and
// amortized-redistribution results matter in practice.
package refine

import (
	"math"

	"sptrsv/internal/sparse"
)

// Solver abstracts "solve A·X = B using the existing factorization";
// both the sequential supernodal solver and the parallel machine solver
// satisfy it via small adapters.
type Solver func(b *sparse.Block) *sparse.Block

// Reason explains why the refinement loop stopped — the input harness
// fallback decisions and operator logs need to tell a healthy stop
// (converged) from a numerical failure (non-finite residual) or a
// factor-quality ceiling (stagnated).
type Reason string

const (
	// ReasonConverged: the relative residual is at most tol.
	ReasonConverged Reason = "converged"
	// ReasonStagnated: an iteration failed to at least halve the
	// residual; more solves would oscillate, not help.
	ReasonStagnated Reason = "stagnated"
	// ReasonNonFinite: the residual became NaN or ±Inf — the solver
	// produced a poisoned correction (breakdown downstream of the
	// factorization); refinement cannot recover.
	ReasonNonFinite Reason = "non-finite residual"
	// ReasonMaxIter: the iteration budget ran out while still improving.
	ReasonMaxIter Reason = "max iterations"
)

// Result reports the refinement history.
type Result struct {
	X         *sparse.Block
	Residuals []float64 // ‖b−A·x‖∞/‖b‖∞ after each iteration (index 0: initial solve)
	Converged bool
	Iters     int    // refinement iterations performed (excluding the initial solve)
	Reason    Reason // why the loop stopped
}

// Solve runs an initial solve followed by up to maxIter refinement steps,
// stopping when the relative residual meets tol or stops improving.
// Result.Reason records why the loop stopped.
func Solve(a *sparse.SymCSC, solve Solver, b *sparse.Block, maxIter int, tol float64) Result {
	return Continue(a, solve, b, solve(b.Clone()), nil, nil, maxIter, tol)
}

// Continue refines an existing approximate solution x of A·X = B in
// place: Residuals[0] is the residual of the given x (the "initial
// solve" slot of Solve's history), and up to maxIter correction solves
// follow under the same convergence/stagnation/non-finite rules. This is
// the entry point of the degradation ladder, where the initial x comes
// from a sweep that already ran (possibly batched): maxIter 0 only
// verifies it. r is b-shaped residual scratch, overwritten; nil
// allocates it. The history is appended to hist[:0], so a caller that
// passes back the returned Residuals refines without allocating; nil
// starts a fresh one. solve may overwrite its argument.
// Solve(a, s, b, ...) is exactly Continue(a, s, b, s(b.Clone()), nil,
// nil, ...).
//
// Acceptance is per column: the residual of a block is the largest
// column's ‖b_j − A·x_j‖∞/‖b_j‖∞, so a column of small scale is judged
// against its own right-hand side, never against a larger batchmate's.
// At width 1 that is ‖b − A·x‖∞/‖b‖∞.
func Continue(a *sparse.SymCSC, solve Solver, b, x, r *sparse.Block, hist []float64, maxIter int, tol float64) Result {
	res := Result{X: x, Residuals: hist[:0]}
	if r == nil {
		r = sparse.NewBlock(b.N, b.M)
	}
	prev := math.Inf(1) // so the given x is never judged stagnant
	for {
		a.MulBlock(x, r)
		cur := residual(r, b)
		res.Residuals = append(res.Residuals, cur)
		switch {
		case cur <= tol:
			// The one acceptance rule of the ladder: a residual equal to
			// tol passes, NaN fails the comparison, +Inf exceeds any tol.
			res.Converged, res.Reason = true, ReasonConverged
		case math.IsNaN(cur) || math.IsInf(cur, 0):
			// The solve is poisoned; iterating on a NaN residual would
			// only feed NaN corrections back in.
			res.Reason = ReasonNonFinite
		case !(cur < prev*0.5):
			// stagnation: stop rather than oscillate
			res.Reason = ReasonStagnated
		case res.Iters >= maxIter:
			res.Reason = ReasonMaxIter
		default:
			prev = cur
			// r is rewritten before it is read again, so the correction
			// may be solved in place.
			x.AddScaled(1, solve(r))
			res.Iters++
			continue
		}
		return res
	}
}

// residual overwrites r, which holds A·x, with the residual b − A·x and
// returns its largest column ratio ‖r_j‖∞/‖b_j‖∞; a zero column of b
// divides by 1. A NaN anywhere in r or b, or an ∞/∞ column, makes it
// NaN (and may leave r partly written: nothing reads a poisoned
// residual). Each column takes one fused pass; at width 1 — every
// request a server verifies — that is one contiguous pass.
func residual(r, b *sparse.Block) float64 {
	m := b.M
	bd, rd := b.Data, r.Data[:len(b.Data)]
	worst := 0.0
	for j := 0; j < m; j++ {
		rn, bn := 0.0, 0.0
		for i := j; i < len(bd); i += m {
			bv := bd[i]
			rv := bv - rd[i]
			rd[i] = rv
			// NaN fails every comparison, so the common case is one
			// compare per value and NaN is checked only off it.
			if ra := math.Abs(rv); !(ra <= rn) {
				if ra != ra {
					return ra
				}
				rn = ra
			}
			if ba := math.Abs(bv); !(ba <= bn) {
				if ba != ba {
					return ba
				}
				bn = ba
			}
		}
		c := ratio(rn, bn)
		if c != c {
			return c // ∞/∞
		}
		worst = max(worst, c)
	}
	return worst
}

// ratio is one column's ‖r‖∞/‖b‖∞, with a zero ‖b‖∞ read as 1.
func ratio(rn, bn float64) float64 {
	if bn == 0 {
		bn = 1
	}
	return rn / bn
}
