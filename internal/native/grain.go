package native

import (
	"sptrsv/internal/symbolic"
)

// This file implements the grain controller: the shared-memory analogue
// of the paper's subtree-to-subcube split. The paper keeps every
// elimination subtree below level log p sequential on one processor, so
// only the top of the tree pays parallel overhead; here the same idea is
// applied by work instead of by level — every maximal subtree whose total
// solve work falls below a cutoff is collapsed into a single sequential
// task that executes its supernodes in postorder. The task DAG the
// scheduler runs shrinks from NSuper nodes to a top-of-tree skeleton,
// which is the dominant lever for SpTRSV throughput on wide, flat trees
// (Böhnlein et al., PAPERS.md).
//
// Aggregation changes only where task boundaries fall, never the
// per-supernode operation order, so the bitwise-identity guarantee
// against the simulator's p=1 run is untouched for every grain value.

// DefaultGrain is the floor of the work cutoff (in per-RHS solve flops)
// derived when Options.Grain is zero: one supernode task costs a few
// hundred nanoseconds of scheduling, so subtrees below a few thousand
// flops are cheaper to run inline than to hand to the pool, whatever the
// worker count.
const DefaultGrain = 4096

// tasksPerWorker sizes the derived cutoff: subtrees holding at most
// 1/(tasksPerWorker·workers) of the total solve work run sequentially —
// the paper's "sequential below level log p", stated by work — which
// leaves each worker a handful of leaf tasks to balance the load over
// and a top-of-tree skeleton of a few dozen tasks. 4, 8 and 16 measured
// indistinguishable on all four benchmark workloads (DESIGN §12).
const tasksPerWorker = 8

// taskGraph is the aggregated task DAG precomputed by NewSolver: a tree
// of tasks, each executing one or more whole supernode subtrees. Forward
// elimination runs tasks leaves→root (deps = child count), back
// substitution reverses every edge (deps = 1 per non-root). Task indices
// are topologically sorted — every task's index is greater than all its
// children's — so ascending order is a valid sequential forward schedule
// and descending order a valid backward one.
type taskGraph struct {
	nTasks int
	// taskOf maps supernode → task; members is its inverse, listing each
	// task's supernodes in ascending (= postorder, children first) order.
	taskOf  []int
	members [][]int
	// parent/children/nchildren are the collapsed elimination-tree edges.
	parent    []int
	children  [][]int
	nchildren []int32
	// fsources are tasks with no children (forward-pass sources); bsources
	// tasks with no parent (backward-pass sources).
	fsources, bsources []int
	// aggregated counts tasks executing more than one supernode.
	aggregated int
}

// solveWork returns the per-RHS flop estimate of supernode s's forward
// (or backward — they are symmetric) trapezoid sweep: t columns, each a
// reciprocal scale plus a rank-1 update of the rows below it.
func solveWork(sym *symbolic.Factor, s int) int64 {
	t := int64(sym.Width(s))
	ns := int64(sym.Height(s))
	return t * (2*ns - t + 1)
}

// checkTopological panics unless the supernodal elimination-tree
// invariant SParent[s] > s (parents hold later columns) holds — the
// property every ascending/descending pass in this package relies on,
// guaranteed by both Analyze and Amalgamate.
func checkTopological(sym *symbolic.Factor) {
	for s := 0; s < sym.NSuper; s++ {
		if p := sym.SParent[s]; p >= 0 && p <= s {
			panic("native: supernode parent not topologically ordered")
		}
	}
}

// buildTaskGraph aggregates the supernodal elimination forest under the
// work cutoff grain: 0 derives the cutoff from the total solve work and
// the worker count (see tasksPerWorker), never below DefaultGrain;
// negative disables aggregation (one task per supernode), and a huge
// value collapses each tree into a single sequential task.
func buildTaskGraph(sym *symbolic.Factor, grain, workers int) *taskGraph {
	n := sym.NSuper
	checkTopological(sym)

	// Cumulative subtree work, children before parents.
	work := make([]int64, n)
	var total int64
	for s := 0; s < n; s++ {
		w := solveWork(sym, s)
		total += w
		for _, c := range sym.SChildren[s] {
			w += work[c]
		}
		work[s] = w
	}
	cutoff := int64(grain)
	if grain == 0 {
		cutoff = max(DefaultGrain, total/int64(tasksPerWorker*workers))
	} else if grain < 0 {
		cutoff = 0
	}

	// rootOf[s] is the root of the maximal aggregated subtree containing
	// s (s itself when s is that root), or unset when s's subtree exceeds
	// the cutoff and s stays a singleton task. Descending order sees every
	// parent before its children, so membership propagates down the tree.
	rootOf := make([]int, n)
	covered := make([]bool, n)
	for s := n - 1; s >= 0; s-- {
		if work[s] > cutoff {
			rootOf[s] = -1
			continue
		}
		if p := sym.SParent[s]; p >= 0 && covered[p] {
			rootOf[s] = rootOf[p]
		} else {
			rootOf[s] = s
		}
		covered[s] = true
	}

	// Assign task ids at each task's terminal (maximum) supernode, in
	// ascending supernode order: subtree members precede their root, so
	// task ids inherit the topological order of the supernodes.
	taskOf := make([]int, n)
	nTasks := 0
	for s := 0; s < n; s++ {
		if !covered[s] || rootOf[s] == s {
			taskOf[s] = nTasks
			nTasks++
		}
	}
	for s := 0; s < n; s++ {
		if covered[s] && rootOf[s] != s {
			taskOf[s] = taskOf[rootOf[s]]
		}
	}
	members := make([][]int, nTasks)
	for s := 0; s < n; s++ {
		members[taskOf[s]] = append(members[taskOf[s]], s)
	}

	// Collapsed edges. Cross-task edges always leave a task's terminal
	// supernode: an aggregated subtree is closed under children, and an
	// uncovered supernode's parent is itself uncovered (subtree work is
	// monotone up the tree).
	g := &taskGraph{
		nTasks:    nTasks,
		taskOf:    taskOf,
		members:   members,
		parent:    make([]int, nTasks),
		children:  make([][]int, nTasks),
		nchildren: make([]int32, nTasks),
	}
	for t := range g.parent {
		g.parent[t] = -1
	}
	for s := 0; s < n; s++ {
		if covered[s] && rootOf[s] != s {
			continue // interior member: its parent edge stays intra-task
		}
		if p := sym.SParent[s]; p >= 0 {
			pt := g.taskOf[p]
			g.parent[g.taskOf[s]] = pt
			g.nchildren[pt]++
			g.children[pt] = append(g.children[pt], g.taskOf[s])
		}
	}
	for t := 0; t < nTasks; t++ {
		if g.nchildren[t] == 0 {
			g.fsources = append(g.fsources, t)
		}
		if g.parent[t] < 0 {
			g.bsources = append(g.bsources, t)
		}
		if len(g.members[t]) > 1 {
			g.aggregated++
		}
	}
	return g
}
