package native

// arena is the per-solver scratch pool that makes the steady-state solve
// path allocation-free: the forward update stack, one front per worker,
// the per-task dependency counters, and the per-worker backward
// accumulators are carved out of slabs sized at the first solve and
// recycled by every subsequent Solve/SolveCtx/SolveInto call with the
// same RHS width. A solve with a different width re-sizes the arena once
// and then runs allocation-free again.
//
// No supernode keeps a buffer of its own across the solve. The only rows
// that must outlive a supernode's forward task are its triangle rows (y)
// and its below rows (the update its parent gathers): y goes into the
// caller's solution block x, row for row where the answer will land, and
// the update onto the stack, the shared-memory analogue of the
// simulator's distributed v pieces. Backward reads y back from x and every
// below row from x too, where its ancestor has already stored the answer.
//
// The arena is what makes a Solver unsafe for concurrent solves: two
// overlapping calls would share these buffers. Sequential reuse — the
// server pattern of many solves against one factor — is the contract.
type arena struct {
	m int // RHS width the arena is currently sized for (0 = unsized)

	// upd is the forward update stack: supernode s's Height−Width below
	// rows, row-major, at upd[updOff[s]·m:], from its forward task until
	// its parent gathers them. The layout is taskdag.Subtrees.Stack's over
	// the solve's tasks — a region per task, postorder push and pop inside
	// it — so no two concurrent tasks write the same rows and a parent
	// reads a child task's update only after that task completed.
	upd []float64

	// fronts[w] is worker w's front, maxHeight×m row-major: where a
	// supernode's rows are assembled and swept, forward and backward.
	fronts [][]float64

	// deps holds the per-task dependency counters of the width's schedule
	// (one per lane window of a split task), fully rewritten at the start
	// of each sweep.
	deps []int32

	// scratch[w] is worker w's backward partial-sum accumulator (the
	// paper's per-block acc), sized b×m — reused across every block of
	// every supernode that worker executes.
	scratch [][]float64

	// bytes is the total footprint of the arena's slabs — stack + fronts
	// + scratch + deps — reported as Stats.AllocBytes and ArenaBytes.
	bytes int64
}

// ensure sizes the arena for RHS width m, reusing the existing slabs
// when the width is unchanged (the zero-allocation steady state).
func (a *arena) ensure(sv *Solver, m int) {
	if a.m == m {
		return
	}
	a.m = m
	a.upd = make([]float64, sv.updRows*m)
	sv.sched = sv.scheduleAt(m)
	if n := sv.sched.up.Tasks(); len(a.deps) != n {
		a.deps = make([]int32, n)
	}
	if a.fronts == nil {
		a.fronts = make([][]float64, sv.workers)
		a.scratch = make([][]float64, sv.workers)
	}
	for w := range a.fronts {
		a.fronts[w] = make([]float64, sv.maxHeight*m)
		a.scratch[w] = make([]float64, partialSumBlock*m)
	}
	a.bytes = int64(len(a.upd))*8 +
		int64(sv.workers)*int64(sv.maxHeight*m)*8 +
		int64(sv.workers)*int64(partialSumBlock*m)*8 +
		int64(len(a.deps))*4
	sv.arenaFootprint.Store(a.bytes)
	// The dispatch census depends on the RHS width, and ensure runs
	// exactly when the width changes.
	sv.buildDispatch(m)
}
