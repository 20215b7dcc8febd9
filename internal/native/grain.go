package native

import (
	"math/bits"

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
// sequential task. It also returns each task's window cap (see
// windowCaps) and the least work a window must carry (minWindowWork
// under the derived cutoff; 0 under any other grain, so the package's
// tests can put windows on problems too small to pay for them).
func partition(sym *symbolic.Factor, grain, workers int) (*taskdag.Subtrees, []int, int64) {
	work := make([]int64, sym.NSuper)
	var total int64
	for s := range work {
		work[s] = solveWork(sym, s)
		total += work[s]
	}
	cutoff, floor := int64(grain), int64(0)
	if grain == 0 {
		cutoff, floor = taskdag.Cutoff(total, workers), minWindowWork
	} else if grain < 0 {
		cutoff = 0
	}
	p := taskdag.Aggregate(sym.SParent, work, cutoff)
	return p, windowCaps(sym, p, work, cutoff, workers), floor
}

// The top of the tree runs as RHS-lane windows: the paper solves a
// supernode at level l < log p on p/2^l processors, and here such a
// supernode becomes up to that many tasks, each sweeping a window of the
// right-hand sides' lanes. Every primitive treats each RHS column on its
// own, and the backward zero skip reads only the panel, so a window's
// answer is, bit for bit, the same lanes of the full-width answer: the
// windows need no barrier between them and no wide task in the executor.
const (
	// windowLanes is the lane granule of a window, the width of the row
	// primitives' four-lane vector chunk.
	windowLanes = 4
	// minSplitWidth is the narrowest solve that splits: two windows of
	// windowLanes.
	minSplitWidth = 2 * windowLanes
	// minWindowWork is the least work, in flops over all of its lanes, a
	// window must carry on average. A half-width window takes about 60 %
	// of the full width's time (the panel's broadcasts do not halve), and
	// the second window starts later by a hand-off: 8–32 µs at the median
	// and up to 120 µs at the 90th percentile, measured between the two
	// windows' hook calls of a root split at m = 30 on two workers
	// (2-vCPU Xeon). Splitting a supernode that takes T at full width thus
	// saves 0.4·T less that delay. 2²⁰ flops is about 100 µs of kernel
	// work at 10 GFLOP/s, so a supernode split into two windows of that
	// work saves about 80 µs before the delay, two to ten times the
	// median delay. GRID2D-63's 125-column root, 15 750 flops per
	// right-hand side, stays whole at every width up to 133: split at m =
	// 8 on two workers, it read slower than whole in 16 of 20 alternated
	// BenchmarkSweep rounds (DESIGN §12).
	minWindowWork = 1 << 20
)

// windowCaps returns, per task of p, the most windows it may split into:
// ⌊workers/2^l⌋ for a task that is one supernode at depth l < ⌊log₂
// workers⌋ (a root is at depth 0) whose own work reaches the cutoff, 1
// for every other task. It returns nil for one worker.
func windowCaps(sym *symbolic.Factor, p *taskdag.Subtrees, work []int64, cutoff int64, workers int) []int {
	levels := bits.Len(uint(max(workers, 1))) - 1
	if levels == 0 {
		return nil
	}
	depth := make([]int, sym.NSuper)
	for s := sym.NSuper - 1; s >= 0; s-- {
		if par := sym.SParent[s]; par >= 0 {
			depth[s] = depth[par] + 1
		}
	}
	caps := make([]int, p.Tasks())
	for t := range caps {
		caps[t] = 1
		if members := p.Members(t); len(members) == 1 {
			if s := members[0]; depth[s] < levels && work[s] >= cutoff {
				caps[t] = workers >> depth[s]
			}
		}
	}
	return caps
}

// windowsAt returns how many windows a task capped at limit splits into
// at RHS width m, when its one supernode does work flops per right-hand
// side: one below minSplitWidth, else as many as the cap and whole
// windowLanes-wide windows allow with each window carrying floor flops
// on average, and never fewer than one.
func windowsAt(limit int, work, floor int64, m int) int {
	if m < minSplitWidth {
		return 1
	}
	k := min(limit, m/windowLanes)
	if floor > 0 {
		k = int(min(int64(k), work*int64(m)/floor))
	}
	return max(k, 1)
}

// laneWindow returns window i of the k an m-wide block splits into:
// whole windowLanes chunks, balanced by count (the first windows take one
// chunk more when they do not divide evenly), and the m mod windowLanes
// remainder lanes on the last window. k = 1 is the whole width.
func laneWindow(m, k, i int) (k0, k1 int) {
	chunks := m / windowLanes
	q, r := chunks/k, chunks%k
	k0 = windowLanes * (i*q + min(i, r))
	k1 = k0 + windowLanes*q
	if i < r {
		k1 += windowLanes
	}
	if i == k-1 {
		k1 = m
	}
	return k0, k1
}
