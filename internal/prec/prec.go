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
// correct, just not cheap. That guarantee is a rung list (Guard.Rungs)
// climbed by internal/ladder's one loop; this package owns the policy
// and the lazy float64 factor, not a solve loop of its own.
package prec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sptrsv/internal/chol"
	"sptrsv/internal/condest"
	"sptrsv/internal/ladder"
	"sptrsv/internal/native"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
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

// Guard is the lazy float64 safety net behind one matrix's
// mixed-precision solver. Rungs lists the ladder a mixed server climbs;
// its lower rungs answer from a float64 factor that is factorized on
// first use (charged via ExtraBytes, so the registry's budget sees it)
// and cached across requests. A Guard is cheap until the first
// stagnation: no float64 factor, no second solver.
type Guard struct {
	a    *sparse.SymCSC
	sym  *symbolic.Factor
	opts native.Options // fallback solver options (precision forced to float64)

	mu   sync.Mutex
	fb   *native.Solver // lazily built float64 fallback
	shut bool
	// fbBytes is atomic, not under mu: the registry reads it with its own
	// mutex held, and must not wait out a factorization in Fallback.
	fbBytes atomic.Int64
}

// NewGuard builds the guard for the matrix a with symbolic factor sym.
// opts are the options the fallback float64 solver is built with on
// first use — pass the same workers as the mixed solver so a degraded
// matrix keeps its schedule; Precision is overridden to float64.
func NewGuard(a *sparse.SymCSC, sym *symbolic.Factor, opts native.Options) *Guard {
	opts.Precision = native.PrecisionFloat64
	return &Guard{a: a, sym: sym, opts: opts}
}

// Rungs is the ladder of a mixed-precision solver sv32 (a
// PrecisionFloat32 solver over this guard's matrix): the f32 sweep
// refined to the float64 tolerance — PathNative when the sweep alone
// met it, PathMixedRefine after iterations — and, when that stagnates
// or goes non-finite, the float64 ladder (native, then sequential +
// refinement) on the lazily built fallback, both PathFloat64Fallback.
func (g *Guard) Rungs(sv32 *native.Solver) []ladder.Rung {
	lazy := func(sweep func(*native.Solver) ladder.Sweep) ladder.Sweep {
		return func(ctx context.Context, b, x *sparse.Block) error {
			fb, err := g.Fallback()
			if err != nil {
				return err
			}
			return sweep(fb)(ctx, b, x)
		}
	}
	return []ladder.Rung{
		{Path: ladder.PathNative, Refined: ladder.PathMixedRefine, Sweep: ladder.Native(sv32), MaxIter: ladder.MaxRefineIters},
		{Path: ladder.PathFloat64Fallback, Sweep: lazy(ladder.Native)},
		{Path: ladder.PathFloat64Fallback, MaxIter: ladder.MaxRefineIters,
			Sweep: lazy(func(fb *native.Solver) ladder.Sweep { return ladder.Sequential(fb.F) })},
	}
}

// Fallback returns the float64 fallback solver, factorizing on first
// use (the expensive, hopefully-never step — its cost is why the guard
// is lazy and its bytes are reported via ExtraBytes rather than charged
// up front). Concurrent first calls singleflight on the mutex.
func (g *Guard) Fallback() (*native.Solver, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.shut {
		return nil, errors.New("prec: guard closed")
	}
	if g.fb == nil {
		f64, err := chol.Factorize(g.a, g.sym)
		if err != nil {
			return nil, fmt.Errorf("prec: factorizing the float64 fallback: %w", err)
		}
		g.fb = native.NewSolver(f64, g.opts)
		g.fbBytes.Store(f64.ValueBytes())
	}
	return g.fb, nil
}

// ExtraBytes returns the resident cost of the float64 fallback factor —
// 0 until the first stagnation forces it into existence. The registry
// folds this into the matrix's budget charge, so a degraded mixed
// matrix is priced at what it really holds (f32 + f64 ≈ 1.5× a plain
// float64 one), not at the optimistic half. It never blocks.
func (g *Guard) ExtraBytes() int64 { return g.fbBytes.Load() }

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
