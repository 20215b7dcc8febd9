package native

import (
	"fmt"
	"runtime"

	"sptrsv/internal/chol"
	"sptrsv/internal/taskdag"
)

// NewSolverLike builds a solver for a refactorized factor — new numeric
// values, same symbolic structure — by sharing the schedule of an existing
// solver instead of recomputing it. The task DAG, scatter maps, and kernel
// geometry depend only on the symbolic analysis and the solver options,
// all invariant across a value swap, and are read-only at solve time
// (dependency counters live in each solver's arena), so the two solvers
// can run concurrently: this is what lets a serving layer hot-swap a
// freshly refactorized matrix while in-flight solves drain on the old
// solver. Everything mutable — the dispatch census, the arena, the worker
// pool — is fresh.
//
// The factor must share the template's symbolic analysis (the invariant
// the whole fast path rests on); NewSolverLike panics otherwise.
func NewSolverLike(f *chol.Factor, like *Solver) *Solver {
	if f.Sym != like.F.Sym {
		panic(fmt.Sprintf("native: NewSolverLike factor has a different symbolic analysis (N=%d) than the template (N=%d)", f.Sym.N, like.F.Sym.N))
	}
	requirePlane(f, like.precision)
	sv := &Solver{
		F:         f,
		workers:   like.workers,
		precision: like.precision,
		hook:      like.hook,
		exec:      taskdag.NewExecutor(like.workers),

		// Shared, read-only at solve time.
		parentPos: like.parentPos,
		tasks:     like.tasks,
		updOff:    like.updOff,
		updRows:   like.updRows,
		maxHeight: like.maxHeight,
		bsz:       like.bsz,
	}
	runtime.SetFinalizer(sv, (*Solver).Close)
	return sv
}
