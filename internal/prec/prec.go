// Package prec is the precision-policy subsystem of the serving stack:
// the per-matrix choice between full float64 factor storage and the
// mixed-precision path — float32 factor storage (half the resident
// bytes, half the memory traffic through the bandwidth-bound sweeps)
// with float64 residual accuracy recovered by iterative refinement.
//
// The split of responsibilities is deliberate. internal/native knows
// only the concrete storage precision of its kernels (float64 or
// float32 plane, see native.Precision) and stays policy-free; this
// package owns the policy (Policy: float64 | mixed | auto), resolves it
// per matrix at build time — "auto" consults a Hager condition estimate
// through internal/condest, because refinement on a float32 factor
// contracts the residual by ~κ·2⁻²⁴ per iteration and stops paying off
// once κ approaches 2²⁴ — and provides the accuracy guarantee around
// the f32 sweep: refine to the float64 tolerance, and when refinement
// stagnates or goes non-finite (internal/refine's safety-net reasons),
// fall back to a lazily built float64 factor so the answer is still
// correct, just not cheap. The serving layer reports which rung
// answered via harness.Path, so degradation is visible, never silent.
package prec

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sptrsv/internal/chol"
	"sptrsv/internal/condest"
	"sptrsv/internal/harness"
	"sptrsv/internal/native"
	"sptrsv/internal/refine"
	"sptrsv/internal/sparse"
)

// Policy is the per-matrix precision policy. The zero value is
// PolicyFloat64 — exactly the pre-precision behaviour — so an
// unconfigured stack changes nothing.
type Policy int

const (
	// PolicyFloat64 stores and sweeps the factor in float64. The default.
	PolicyFloat64 Policy = iota
	// PolicyMixed stores the factor in float32 and recovers float64
	// residual accuracy via iterative refinement, with the float64
	// fallback as the safety net.
	PolicyMixed
	// PolicyAuto picks per matrix at build time: mixed when the
	// condition estimate says refinement will converge comfortably
	// (κ̂ ≤ MaxAutoCondition), float64 otherwise.
	PolicyAuto
)

func (p Policy) String() string {
	switch p {
	case PolicyFloat64:
		return "float64"
	case PolicyMixed:
		return "mixed"
	case PolicyAuto:
		return "auto"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses the command-line/ingest spelling of a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "float64":
		return PolicyFloat64, nil
	case "mixed":
		return PolicyMixed, nil
	case "auto":
		return PolicyAuto, nil
	}
	return 0, fmt.Errorf("prec: unknown precision policy %q (want float64 | mixed | auto)", s)
}

// MaxAutoCondition is PolicyAuto's cutover: matrices whose κ₁ estimate
// exceeds it stay float64. One refinement iteration on a float32 factor
// contracts the residual by roughly κ·2⁻²⁴ ≈ κ·6e-8; at κ = 1e6 that is
// still a ~0.06 contraction per iteration — three or four cheap sweeps
// to 1e-10 — while by κ ≈ 2²⁴ refinement stops converging at all. The
// margin below the hard ceiling buys headroom for the estimate being a
// lower bound.
const MaxAutoCondition = 1e6

// CondIters bounds the Hager solve pairs of the auto estimate: the
// estimate typically settles in 2–3 iterations and each costs two
// sequential solves on the still-float64 factor at build time.
const CondIters = 5

// Resolve maps a policy to the concrete storage precision for one
// matrix. It must be called while f still carries the float64 plane
// (i.e. before Demote): PolicyAuto runs the condition estimate through
// sequential float64 solves on f. The estimate's solves never fail on a
// healthy factor; if one breaks down the residual-poisoned estimate is
// +Inf or NaN, which fails the ≤ comparison and lands on float64 — the
// conservative side.
func Resolve(policy Policy, a *sparse.SymCSC, f *chol.Factor) native.Precision {
	switch policy {
	case PolicyMixed:
		return native.PrecisionFloat32
	case PolicyAuto:
		est := condest.Estimate(a, func(b *sparse.Block) *sparse.Block {
			_ = f.Solve(b)
			return b
		}, CondIters)
		if est > 0 && est <= MaxAutoCondition {
			return native.PrecisionFloat32
		}
		return native.PrecisionFloat64
	default:
		return native.PrecisionFloat64
	}
}

// Result reports one guaranteed-accuracy mixed-precision solve.
type Result struct {
	X *sparse.Block
	// Path is the rung that produced the answer: PathNative (the f32
	// sweep already met tolerance), PathMixedRefine (refinement
	// iterations recovered it), or PathFloat64Fallback (refinement
	// stagnated and the float64 guard answered — possibly through the
	// harness's own sequential rung).
	Path     harness.Path
	Residual float64 // ‖Ax−b‖∞/‖b‖∞ of the returned X
	// Iters counts refinement iterations performed on the f32 plane
	// (excluding the initial sweep); Reason is why that loop stopped.
	Iters  int
	Reason refine.Reason
}

// Guard is the accuracy safety net wrapped around one matrix's
// mixed-precision solver: it runs the refinement loop that recovers
// float64 residual accuracy from f32 sweeps, and on stagnation lazily
// factorizes a float64 fallback (charged via ExtraBytes, so the
// registry's budget sees it) that answers through the harness's full
// degradation ladder. A Guard is cheap until the first stagnation: no
// float64 factor, no second solver, just the refinement loop.
type Guard struct {
	pr      *harness.Prepared
	opts    native.Options // fallback solver options (precision forced to float64)
	tol     float64
	maxIter int

	mu   sync.Mutex
	fb   *native.Solver // lazily built float64 fallback, cached across requests
	fbB  int64          // resident bytes of the fallback factor once built
	shut bool
}

// MaxRefineIters is the refinement budget per solve — the same budget
// the harness's sequential rung uses. Mixed solves on matrices auto
// admitted under MaxAutoCondition converge in 1–4 iterations; the
// budget only matters for PolicyMixed forced onto ill-conditioned
// systems, where stagnation (not the budget) is the usual exit.
const MaxRefineIters = 10

// NewGuard builds the guard for one prepared problem. opts are the
// options the fallback float64 solver is built with on first use —
// pass the same workers as the mixed solver so a degraded matrix
// keeps its schedule; Precision is overridden to float64. tol <= 0 means
// the experiments' default of 1e-10.
func NewGuard(pr *harness.Prepared, opts native.Options, tol float64) *Guard {
	if tol <= 0 {
		tol = 1e-10
	}
	opts.Precision = native.PrecisionFloat64
	return &Guard{pr: pr, opts: opts, tol: tol, maxIter: MaxRefineIters}
}

// Tol returns the guard's residual tolerance.
func (g *Guard) Tol() float64 { return g.tol }

// solver wraps the warm f32 native solver as a refine.Solver: a sweep
// that errors returns its input unchanged, so the refinement loop
// observes the stagnant or non-finite residual and stops with the
// matching Reason — the same no-silent-failure contract the harness's
// sequential rung uses. The last native error is kept for the
// cancellation check.
func mixedSolver(ctx context.Context, sv *native.Solver, lastErr *error) refine.Solver {
	return func(rb *sparse.Block) *sparse.Block {
		x, _, err := sv.SolveCtx(ctx, rb)
		if err != nil {
			*lastErr = err
			return rb
		}
		return x
	}
}

// Solve is the guaranteed-accuracy mixed-precision solve for one RHS
// block: run the f32 sweep, refine to the float64 tolerance, and on
// stagnation or a non-finite residual answer from the float64 fallback.
// sv must be a PrecisionFloat32 solver over this guard's problem. The
// returned error is non-nil only when every rung failed (or ctx was
// cancelled — cancellation aborts the ladder like the harness does).
func (g *Guard) Solve(ctx context.Context, sv *native.Solver, b *sparse.Block) (Result, error) {
	var nativeErr error
	rr := refine.Solve(g.pr.A, mixedSolver(ctx, sv, &nativeErr), b, g.maxIter, g.tol)
	res := Result{X: rr.X, Residual: rr.Residuals[len(rr.Residuals)-1], Iters: rr.Iters, Reason: rr.Reason}
	if rr.Converged {
		if rr.Iters == 0 {
			res.Path = harness.PathNative
		} else {
			res.Path = harness.PathMixedRefine
		}
		return res, nil
	}
	var cancelled *native.CancelledError
	if errors.As(nativeErr, &cancelled) {
		// The caller asked to stop; burning a float64 factorization on a
		// dead request would defeat the deadline.
		return res, nativeErr
	}
	return g.fallbackSolve(ctx, res, b)
}

// Continue refines an existing f32-sweep solution x of A·X = B in place
// — the batch path: the serving layer has already run one coalesced
// sweep and verified the residual missed tolerance, so only the
// refinement iterations (each a batched sweep at the same width) remain.
// The caller inspects the returned refine.Result; a non-converged batch
// falls back per request through Solve.
func (g *Guard) Continue(ctx context.Context, sv *native.Solver, b, x *sparse.Block) refine.Result {
	var nativeErr error
	return refine.Continue(g.pr.A, mixedSolver(ctx, sv, &nativeErr), b, x, g.maxIter, g.tol)
}

// fallbackSolve answers from the lazily built float64 solver through
// the harness's full degradation ladder (native f64, then sequential +
// refinement), reporting PathFloat64Fallback. res carries the f32-side
// refinement telemetry through unchanged.
func (g *Guard) fallbackSolve(ctx context.Context, res Result, b *sparse.Block) (Result, error) {
	fb, err := g.Fallback()
	if err != nil {
		return res, fmt.Errorf("prec: refinement %s at residual %.3g and the float64 fallback failed: %w", res.Reason, res.Residual, err)
	}
	hr, err := harness.SolveRobustWith(ctx, g.pr, fb, b, g.tol)
	res.Path = harness.PathFloat64Fallback
	res.X, res.Residual = hr.X, hr.Residual
	return res, err
}

// Fallback returns the float64 fallback solver, factorizing pr.A on
// first use (the expensive, hopefully-never step — its cost is why the
// guard is lazy and its bytes are reported via ExtraBytes rather than
// charged up front). Concurrent first calls singleflight on the mutex.
func (g *Guard) Fallback() (*native.Solver, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.shut {
		return nil, errors.New("prec: guard closed")
	}
	if g.fb == nil {
		f64, err := chol.Factorize(g.pr.A, g.pr.Sym)
		if err != nil {
			return nil, fmt.Errorf("prec: factorizing the float64 fallback: %w", err)
		}
		g.fb = native.NewSolver(f64, g.opts)
		g.fbB = f64.ValueBytes()
	}
	return g.fb, nil
}

// ExtraBytes returns the resident cost of the float64 fallback factor —
// 0 until the first stagnation forces it into existence. The registry
// folds this into the matrix's budget charge, so a degraded mixed
// matrix is priced at what it really holds (f32 + f64 ≈ 1.5× a plain
// float64 one), not at the optimistic half.
func (g *Guard) ExtraBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fbB
}

// Close releases the fallback solver's worker pool if one was built.
// Further Fallback calls fail; in-flight solves on the fallback drain
// under the native solver's own Close contract.
func (g *Guard) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.shut = true
	if g.fb != nil {
		g.fb.Close()
	}
}
