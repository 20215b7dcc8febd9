package native

import (
	"sptrsv/internal/symbolic"
	"sptrsv/internal/taskdag"
)

// This file derives the grain, the shared-memory analogue of the paper's
// subtree-to-subcube split: the paper keeps every subtree below level
// log p sequential on one processor; here every subtree below a work
// cutoff becomes one sequential task (taskdag.Aggregate), so the executor
// runs a top-of-tree skeleton instead of NSuper tasks (Böhnlein et al.,
// PAPERS.md). Task boundaries never change the per-supernode operation
// order, so the answer is bitwise identical for every grain.

// solveWork returns the per-RHS flop estimate of supernode s's forward
// (or backward — they are symmetric) trapezoid sweep: t columns, each a
// reciprocal scale plus a rank-1 update of the rows below it.
func solveWork(sym *symbolic.Factor, s int) int64 {
	t := int64(sym.Width(s))
	ns := int64(sym.Height(s))
	return t * (2*ns - t + 1)
}

// partition cuts the supernodal elimination forest into tasks under the
// work cutoff grain: 0 derives the cutoff from the total solve work and
// the worker count (taskdag.Cutoff); negative disables aggregation (one
// task per supernode), and a huge value collapses each tree into a single
// sequential task.
func partition(sym *symbolic.Factor, grain, workers int) *taskdag.Subtrees {
	work := make([]int64, sym.NSuper)
	var total int64
	for s := range work {
		work[s] = solveWork(sym, s)
		total += work[s]
	}
	cutoff := int64(grain)
	if grain == 0 {
		cutoff = taskdag.Cutoff(total, workers)
	} else if grain < 0 {
		cutoff = 0
	}
	return taskdag.Aggregate(sym.SParent, work, cutoff)
}
