// Package taskdag runs a task DAG on a pool of parked worker goroutines,
// and cuts a forest into subtree tasks to feed it. It imports only the
// standard library, so every layer that walks an elimination tree can
// share one executor. A graph has one form: CSR successors, in-degrees,
// sources, and tasks numbered topologically (every edge runs to a higher
// number), which lets the executor run it inline in ascending order.
package taskdag

import "fmt"

// Graph is a task DAG in successor form, numbered topologically.
type Graph struct {
	// Off and Succ hold the edges: task t's successors are
	// Succ[Off[t]:Off[t+1]].
	Off, Succ []int
	// Indeg is each task's predecessor count — the starting value of its
	// dependency counter.
	Indeg []int32
	// Sources lists the tasks without predecessors, ascending.
	Sources []int
}

// NewGraph returns the graph whose task t has the successors
// succ[off[t]:off[t+1]], with in-degrees and sources derived. It panics
// unless every edge runs to a later task.
func NewGraph(off, succ []int) Graph {
	n := len(off) - 1
	g := Graph{Off: off, Succ: succ, Indeg: make([]int32, n)}
	for t := 0; t < n; t++ {
		for _, s := range succ[off[t]:off[t+1]] {
			if s <= t || s >= n {
				panic(fmt.Sprintf("taskdag: edge %d→%d of a %d-task graph is not topologically numbered", t, s, n))
			}
			g.Indeg[s]++
		}
	}
	// Count the sources before listing them, so a graph costs the same
	// allocations whatever its shape.
	nsrc := 0
	for _, d := range g.Indeg {
		if d == 0 {
			nsrc++
		}
	}
	g.Sources = make([]int, 0, nsrc)
	for t, d := range g.Indeg {
		if d == 0 {
			g.Sources = append(g.Sources, t)
		}
	}
	return g
}

// Tasks returns the number of tasks.
func (g *Graph) Tasks() int { return len(g.Indeg) }

// Reverse returns g with every edge turned around and task t renumbered
// n−1−t, which keeps the numbering topological. A task's successors are
// listed in ascending order of their number in g.
func (g *Graph) Reverse() Graph {
	n := g.Tasks()
	off := make([]int, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + int(g.Indeg[n-1-i])
	}
	next := append([]int(nil), off[:n]...)
	succ := make([]int, len(g.Succ))
	for t := 0; t < n; t++ {
		for _, s := range g.Succ[g.Off[t]:g.Off[t+1]] {
			i := n - 1 - s
			succ[next[i]] = n - 1 - t
			next[i]++
		}
	}
	return NewGraph(off, succ)
}

// Subtrees is a forest cut into tasks, each one or more whole subtrees
// whose nodes run in ascending order (a postorder, since parents follow
// their children).
type Subtrees struct {
	// Up runs children before parents (leaves → roots); Down is its
	// Reverse (roots → leaves), so task t of Up is task Tasks()−1−t of
	// Down.
	Up, Down Graph
	// Aggregated counts the tasks holding more than one node.
	Aggregated int

	// start and nodes list the members: Up task t holds
	// nodes[start[t]:start[t+1]]; task[s] is the Up task holding node s.
	start, nodes, task []int
}

// Tasks returns the number of tasks.
func (p *Subtrees) Tasks() int { return p.Up.Tasks() }

// Members returns the nodes of Up task t, ascending.
func (p *Subtrees) Members(t int) []int { return p.nodes[p.start[t]:p.start[t+1]] }

// minTaskWork is the floor of Cutoff (in the caller's work units, about
// one flop each): handing a task to the pool costs from a few hundred
// nanoseconds to a few microseconds, so lighter subtrees run inline in
// the task that holds their parent, whatever the worker count.
const minTaskWork = 4096

// tasksPerWorker sizes Cutoff: subtrees holding at most
// 1/(tasksPerWorker·workers) of the total work run as one task — the
// paper's "sequential below level log p", stated by work — which leaves
// each worker a handful of leaf tasks to balance the load over and a
// top-of-tree skeleton of a few dozen tasks. 4, 8 and 16 measured
// indistinguishable on the solve's four benchmark workloads (DESIGN §12).
const tasksPerWorker = 8

// Cutoff is the work cutoff for Aggregate of a traversal of total work on
// workers workers: max(minTaskWork, total/(tasksPerWorker·workers)). One
// worker gains nothing from a cut, so there it is total, every tree one
// task.
func Cutoff(total int64, workers int) int64 {
	if workers <= 1 {
		return total
	}
	return max(minTaskWork, total/int64(tasksPerWorker*workers))
}

// Aggregate cuts the forest given by parent (parent[s] > s, or −1 at a
// root) into tasks: every maximal subtree whose total work is at most
// cutoff becomes one task, and every other node is a task of its own. A
// task is numbered at its last node, in ascending node order, so the
// numbering inherits the forest's topological order. Aggregate panics if a
// parent does not follow its child.
func Aggregate(parent []int, work []int64, cutoff int64) *Subtrees {
	n := len(parent)
	// sub[s] is the total work of s's subtree; children come first.
	sub := make([]int64, n)
	for s, p := range parent {
		if p >= 0 && p <= s {
			panic(fmt.Sprintf("taskdag: parent %d of node %d does not follow it", p, s))
		}
		sub[s] += work[s]
		if p >= 0 {
			sub[p] += sub[s]
		}
	}

	// root[s] is the root of the maximal light subtree holding s, or s
	// itself when s's subtree is heavier than the cutoff (subtree work
	// grows up the tree, so then every ancestor is too). Descending order
	// meets every parent before its children.
	root := make([]int, n)
	task := make([]int, n)
	for s := n - 1; s >= 0; s-- {
		root[s] = s
		if p := parent[s]; p >= 0 && sub[s] <= cutoff && sub[p] <= cutoff {
			root[s] = root[p]
		}
	}
	nt := 0
	for s := range task {
		if root[s] == s {
			task[s] = nt
			nt++
		}
	}
	start := make([]int, nt+1)
	for s := range task {
		task[s] = task[root[s]]
		start[task[s]+1]++
	}
	for t := 0; t < nt; t++ {
		start[t+1] += start[t]
	}
	nodes := make([]int, n)
	next := append([]int(nil), start[:nt]...)
	for s, t := range task {
		nodes[next[t]] = s
		next[t]++
	}

	// A light subtree is closed under children, so every edge between
	// tasks leaves a task's last node.
	p := &Subtrees{start: start, nodes: nodes, task: task}
	off := make([]int, nt+1)
	succ := make([]int, 0, nt)
	for t := 0; t < nt; t++ {
		if par := parent[nodes[start[t+1]-1]]; par >= 0 {
			succ = append(succ, task[par])
		}
		off[t+1] = len(succ)
		if start[t+1]-start[t] > 1 {
			p.Aggregated++
		}
	}
	p.Up = NewGraph(off, succ)
	p.Down = p.Up.Reverse()
	return p
}

// Stack lays out the multifrontal update stack of a traversal that runs
// the tasks' members in ascending order, each node leaving an update of
// size(s) for its parent: node s's update starts at off[s], and the whole
// stack is total long. The forest must be postordered (every subtree a
// contiguous range of nodes) and children[s] ascending, as a postordered
// elimination tree's are.
//
// Every node's update goes where its first child's began, so s must read
// its children's updates before it writes its own. Inside a task that is
// postorder push and pop: when s is reached, the updates of its children
// are the top of the task's region, the first child's deepest. The
// stack is cut into regions so that concurrent tasks never write the same
// memory. A task whose first member has no child in another task — a
// light subtree, or a leaf above the cut — opens a region of its own, as
// long as the peak of the tasks that use it. A task whose first member's
// first child lies in another task — a node of its own above the cut —
// continues that child's region: the child's task and everything below it
// are done, so nothing there is live but the child's update, which the
// node reads first. A region is thus used by one light subtree and then
// by a chain of its ancestors, one after the other, and a parent reads a
// child task's update only after that task is done. The regions follow
// each other in the order of the tasks that open them.
func (p *Subtrees) Stack(children [][]int, size func(s int) int) (off []int, total int) {
	nt := p.Tasks()
	off = make([]int, len(p.task))
	region := make([]int, nt) // the task that opened task tk's region
	peak := make([]int, nt)   // region peaks, then region starts, by opening task
	for tk := 0; tk < nt; tk++ {
		members := p.Members(tk)
		region[tk] = tk
		if kids := children[members[0]]; len(kids) > 0 && p.task[kids[0]] != tk {
			region[tk] = region[p.task[kids[0]]]
		}
		r, top := region[tk], 0
		for _, s := range members {
			if kids := children[s]; len(kids) > 0 {
				top = off[kids[0]]
			}
			off[s] = top
			top += size(s)
			peak[r] = max(peak[r], top)
		}
	}
	for tk, pk := range peak {
		peak[tk] = total
		total += pk
	}
	for s, tk := range p.task {
		off[s] += peak[region[tk]]
	}
	return off, total
}
