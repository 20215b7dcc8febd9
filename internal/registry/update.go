package registry

import (
	"math"
	"slices"
	"time"

	"sptrsv/internal/serve"
	"sptrsv/internal/sparse"
)

// UpdateValues is the streaming-update fast path: it swaps the numeric
// values of resident matrix id — vals carries one float64 per stored
// nonzero of the (permuted) matrix, in the matrix's column-compressed
// order — and hot-swaps a freshly refactorized warm server in its place.
// The sparsity pattern, ordering, symbolic analysis with its relative
// indices, and the factorization plan are all reused (chol.Refactorize +
// serve.NewLike, whose fresh solver builds only its task cut), so a swap
// costs a small fraction of a full re-ingest.
//
// Concurrency contract: the new factor and server are built off-lock
// while the old generation keeps serving; the swap itself is atomic under
// the registry lock. In-flight solves (and held Handles) finish on the
// generation they acquired — never a blend of old and new values — and
// the old server is closed exactly once, when its last pin releases. New
// Acquires after UpdateValues returns see the new values. Concurrent
// UpdateValues calls on one id are serialized; each starts from the then-
// current generation.
//
// Errors: ErrNotFound / ErrBuilding / ErrEvicted / ErrClosed as Acquire;
// *BuildError if the entry's build failed; *ValuesError if len(vals)
// does not match the matrix's nonzero count or a value is not finite,
// checked before any numeric work; *chol.PatternError, or a
// *dense.PivotError (dense.ErrNotPD) naming the column where the
// refactorization met a pivot that is not positive and finite (the old
// generation keeps serving untouched in every error case).
func (r *Registry) UpdateValues(id string, vals []float64) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	e, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		return ErrNotFound
	}
	r.mu.Unlock()

	// Serialize swaps on this entry, then pin the (now-)current
	// generation like a handle would, so eviction during the build
	// drains instead of tearing the parent generation down under us.
	e.updateMu.Lock()
	defer e.updateMu.Unlock()

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if r.entries[id] != e {
		// Evicted and re-registered while we waited; the caller's swap
		// targeted an entry that no longer exists.
		r.mu.Unlock()
		return ErrEvicted
	}
	switch e.state {
	case stateBuilding:
		r.mu.Unlock()
		return ErrBuilding
	case stateEvicted:
		r.mu.Unlock()
		return ErrEvicted
	case stateFailed:
		err := e.err
		r.mu.Unlock()
		return err
	}
	g := e.gen
	g.refs++
	e.refs++
	start := time.Now()
	r.mu.Unlock()

	nsrv, err := r.buildGeneration(e, g, vals)

	r.mu.Lock()
	var toClose []*serve.Server
	if err == nil {
		switch {
		case r.closed:
			err = ErrClosed
		case r.entries[id] != e || e.state != stateResident:
			err = ErrEvicted
		default:
			old := e.gen
			e.gen = &generation{srv: nsrv, num: old.num + 1}
			e.baseBytes = nsrv.FactorBytes()
			e.lastUse = r.tick()
			// The old generation drains: our own pin on it (g == old)
			// is still held, so it is reaped at the pin release below
			// at the earliest, or by the last outstanding Handle.
			old.dead = true
			r.swapDraining++
			r.refactorizations++
			if d := time.Since(start); r.refactorEWMA == 0 {
				r.refactorEWMA = d
			} else {
				r.refactorEWMA += (d - r.refactorEWMA) / 4
			}
			r.evictOverBudget(e)
		}
		if err != nil && nsrv != nil {
			toClose = append(toClose, nsrv) // built it, can't install it
		}
	}
	// Release the pin on the parent generation.
	e.refs--
	g.refs--
	if c := r.reapLocked(e, g); c != nil {
		toClose = append(toClose, c)
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	for _, c := range toClose {
		c.Close()
	}
	return err
}

// buildGeneration refactorizes the pinned generation g with new values
// and warms a server for it, entirely outside the registry lock. It
// refactorizes the factor g's server holds — under mixed precision the
// demoted one — so each swap rebuilds the plane set actually in service.
func (r *Registry) buildGeneration(e *entry, g *generation, vals []float64) (*serve.Server, error) {
	a := g.srv.Matrix()
	if len(vals) != len(a.Val) {
		return nil, &ValuesError{ID: e.id, Got: len(vals), Want: len(a.Val)}
	}
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, &ValuesError{ID: e.id, Got: len(vals), Want: len(vals), Index: i, Value: v}
		}
	}
	// Share the pattern slices: Refactorize's plan cache recognizes them
	// by pointer, and the new matrix stays structurally identical.
	na := &sparse.SymCSC{N: a.N, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: slices.Clone(vals)}
	nf, err := g.srv.Factor().Refactorize(na)
	if err != nil {
		return nil, err
	}
	return serve.NewLike(na, nf, g.srv), nil
}
