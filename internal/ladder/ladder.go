// Package ladder is the degradation ladder of the production solve path,
// written once: a list of rungs — each a sweep that solves A·X = B, a
// refinement budget and the label it answers under — and the one loop
// that climbs them: sweep, verify every column's ‖A·x_j−b_j‖∞/‖b_j‖∞
// against the tolerance, refine within the rung's budget, and on any
// failure move to the next rung. The serving layer sweeps rung one at
// the coalesced batch width and finishes each request's climb from its
// own column (Finish), or climbs alone after a failed batch sweep (Run);
// cmd/spdsolve runs it on a solver of its own. Which rung answered is
// reported as a Path, so degradation is visible instead of silent.
package ladder

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"sptrsv/internal/chol"
	"sptrsv/internal/native"
	"sptrsv/internal/refine"
	"sptrsv/internal/sparse"
)

// Path identifies which rung of the ladder produced a solution.
type Path string

const (
	// PathNative: the shared-memory parallel engine answered and its
	// residual passed verification without refinement.
	PathNative Path = "native"
	// PathSequentialRefine: the native rung failed (error or residual)
	// and the sequential solve + iterative refinement answered.
	PathSequentialRefine Path = "sequential+refine"
	// PathMixedRefine: the float32-plane native sweep answered after one
	// or more refinement iterations recovered the float64 tolerance.
	PathMixedRefine Path = "mixed+refine"
	// PathFloat64Fallback: refinement on the float32 plane stagnated or
	// went non-finite and the lazily built float64 factor answered
	// (internal/prec).
	PathFloat64Fallback Path = "float64-fallback"
)

// MaxRefineIters is the refinement budget of every refining rung. Mixed
// solves on matrices admitted under prec.MaxAutoCondition converge in
// 1–4 iterations; on ill-conditioned systems stagnation, not the budget,
// is the usual exit.
const MaxRefineIters = 10

// Sweep solves A·X = B into x (b-shaped, fully overwritten) under ctx.
type Sweep func(ctx context.Context, b, x *sparse.Block) error

// Rung is one step of the ladder.
type Rung struct {
	Path    Path  // label when the rung answers
	Refined Path  // label when it answers after ≥ 1 refinement iteration; "" means Path
	Sweep   Sweep // also solves the refinement corrections
	MaxIter int   // refinement budget; 0 only verifies the sweep
}

// Native is the sweep of a warm native solver (either precision plane).
func Native(sv *native.Solver) Sweep {
	return func(ctx context.Context, b, x *sparse.Block) error {
		_, err := sv.SolveInto(ctx, b, x)
		return err
	}
}

// Sequential is the sequential supernodal solve through f's float64
// plane. It shares no scheduler with the native engine, which is what
// makes it the rung below it.
func Sequential(f *chol.Factor) Sweep {
	return func(_ context.Context, b, x *sparse.Block) error {
		copy(x.Data, b.Data)
		return f.Solve(x)
	}
}

// Float64 is the rung list of a float64 solver: the native sweep,
// verified only, then the sequential solve on the same factor with
// iterative refinement.
func Float64(sv *native.Solver) []Rung {
	return []Rung{
		{Path: PathNative, Sweep: Native(sv)},
		{Path: PathSequentialRefine, Sweep: Sequential(sv.F), MaxIter: MaxRefineIters},
	}
}

// Attempt records one rung that ran.
type Attempt struct {
	Path   Path
	Iters  int           // refinement iterations performed
	Reason refine.Reason // how verification/refinement stopped; "" when the first sweep failed
	Err    error         // why the rung did not answer; nil on the answering rung
}

// Result reports one climb.
type Result struct {
	X        *sparse.Block
	Path     Path    // the answering rung's label; "" when none answered
	Residual float64 // largest column ‖Ax−b‖∞/‖b‖∞ of X as last verified
	// Tried lists the rungs that ran, in order; on success the last one
	// answered. Tried[0].Err is why the fast rung was abandoned.
	Tried []Attempt
}

// Scratch is caller-owned storage for one climb at a fixed block shape:
// X receives the solution, R holds the residual, and the record of the
// climb — the rungs tried, the refinement history and the correction
// block — is kept in it too, so a Result is valid until the Scratch's
// next climb, and a climb that reuses a Scratch allocates nothing until
// a rung fails.
type Scratch struct {
	X, R  *sparse.Block
	tried []Attempt
	hist  []float64
	d     *sparse.Block // refinement correction, allocated on first use
}

// Run climbs rungs for A·X = B until one produces a solution whose
// relative residual is at most tol. A sweep error, a residual miss
// after the rung's refinement budget, or a stagnant or non-finite
// refinement moves to the next rung; a *native.CancelledError aborts at
// once (the caller asked to stop — burning a fallback, or a float64
// factorization, on a dead request would defeat the deadline). When
// every rung fails the error names each rung's cause. ws supplies the
// storage; nil allocates it, and the Result is then the caller's to
// keep. Run is rung one's sweep into ws.X followed by Finish.
func Run(ctx context.Context, a *sparse.SymCSC, rungs []Rung, b *sparse.Block, tol float64, ws *Scratch) (Result, error) {
	if ws == nil {
		ws = &Scratch{X: sparse.NewBlock(b.N, b.M), R: sparse.NewBlock(b.N, b.M)}
	}
	return Finish(ctx, a, rungs, b, tol, ws, rungs[0].Sweep(ctx, b, ws.X))
}

// Finish completes a climb whose rung-one sweep has already run into
// ws.X and returned swept: it verifies (and refines, within rung one's
// budget) that sweep's answer, then climbs the remaining rungs exactly
// as Run does. A serving layer sweeps many right-hand sides at once and
// finishes each column's climb from its own slice of the answer; for a
// column sweep that performs the same operations as a sweep of that
// column alone, the finished climb is bit for bit the solo Run.
func Finish(ctx context.Context, a *sparse.SymCSC, rungs []Rung, b *sparse.Block, tol float64, ws *Scratch, swept error) (res Result, _ error) {
	res = Result{X: ws.X, Tried: ws.tried[:0]}
	defer func() { ws.tried = res.Tried }()
	for i, rung := range rungs {
		att := Attempt{Path: rung.Path}
		err := swept
		if i > 0 {
			err = rung.Sweep(ctx, b, ws.X)
		}
		if err == nil {
			// A correction sweep that errors returns its input unchanged:
			// the loop sees a stagnant or non-finite residual and stops,
			// and err keeps the cause.
			correct := func(rb *sparse.Block) *sparse.Block {
				if ws.d == nil || ws.d.N != rb.N || ws.d.M != rb.M {
					ws.d = sparse.NewBlock(rb.N, rb.M)
				}
				if err = rung.Sweep(ctx, rb, ws.d); err != nil {
					return rb
				}
				return ws.d
			}
			rr := refine.Continue(a, correct, b, ws.X, ws.R, ws.hist, rung.MaxIter, tol)
			ws.hist = rr.Residuals
			att.Iters, att.Reason = rr.Iters, rr.Reason
			res.Residual = rr.Residuals[rr.Iters]
			switch {
			case rr.Converged:
				err = nil // verified, whatever a correction sweep reported on the way
				if rr.Iters > 0 && rung.Refined != "" {
					att.Path = rung.Refined
				}
			case err == nil:
				err = fmt.Errorf("stopped (%s) after %d refinement iterations at residual %.3g above tolerance %.3g",
					rr.Reason, rr.Iters, res.Residual, tol)
			}
		}
		att.Err = err
		res.Tried = append(res.Tried, att)
		if err == nil {
			res.Path = att.Path
			return res, nil
		}
		var cancelled *native.CancelledError
		if errors.As(err, &cancelled) {
			return res, err
		}
	}
	causes := make([]string, len(res.Tried))
	for i, att := range res.Tried {
		causes[i] = fmt.Sprintf("%s: %v", att.Path, att.Err)
	}
	return res, fmt.Errorf("ladder: degradation ladder exhausted: %s", strings.Join(causes, "; "))
}
