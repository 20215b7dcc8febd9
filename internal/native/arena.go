package native

// arena is the per-solver scratch pool that makes the steady-state solve
// path allocation-free: the per-supernode right-hand-side/solution
// buffers, the per-task dependency counters, and the per-worker backward
// accumulators are carved out of slabs sized at the first solve and
// recycled by every subsequent Solve/SolveCtx/SolveInto call with the
// same RHS width. A solve with a different width re-sizes the arena once
// and then runs allocation-free again.
//
// The arena is what makes a Solver unsafe for concurrent solves: two
// overlapping calls would share these buffers. Sequential reuse — the
// server pattern of many solves against one factor — is the contract.
type arena struct {
	m int // RHS width the arena is currently sized for (0 = unsized)

	// slab backs bufs: bufs[s] is the Height(s)×m piece of supernode s
	// (row-major), the shared-memory analogue of the simulator's
	// distributed v pieces. Cleared once per solve; each forward task
	// writes only bufs[s] reading finished children, each backward task
	// writes only bufs[s] reading its finished parent, so no two
	// concurrent tasks ever touch the same piece.
	slab []float64
	bufs [][]float64

	// deps holds the per-task dependency counters, fully rewritten at the
	// start of each sweep.
	deps []int32

	// scratch[w] is worker w's backward partial-sum accumulator (the
	// paper's per-block acc), sized b×m — reused across every block of
	// every supernode that worker executes.
	scratch [][]float64

	// bytes is the total footprint of the arena's slabs, reported as
	// Stats.AllocBytes so grain/width sweeps can see steady-state memory.
	bytes int64
}

// ensure sizes the arena for RHS width m, reusing the existing slabs
// when the width is unchanged (the zero-allocation steady state).
func (a *arena) ensure(sv *Solver, m int) {
	if a.m == m {
		return
	}
	sym := sv.F.Sym
	a.m = m
	a.slab = make([]float64, sv.totalHeight*m)
	if a.bufs == nil {
		a.bufs = make([][]float64, sym.NSuper)
	}
	for s := 0; s < sym.NSuper; s++ {
		off := sv.heightOff[s] * m
		a.bufs[s] = a.slab[off : off+sym.Height(s)*m : off+sym.Height(s)*m]
	}
	if a.deps == nil {
		a.deps = make([]int32, sv.tasks.Tasks())
	}
	if a.scratch == nil {
		a.scratch = make([][]float64, sv.workers)
	}
	for w := range a.scratch {
		a.scratch[w] = make([]float64, partialSumBlock*m)
	}
	a.bytes = int64(len(a.slab))*8 +
		int64(len(a.deps))*4 +
		int64(len(a.scratch))*int64(partialSumBlock*m)*8
	sv.arenaFootprint.Store(a.bytes)
	// The dispatch census depends on the RHS width, and ensure runs
	// exactly when the width changes.
	sv.buildDispatch(m)
}
