package native

import (
	"math"
	"slices"
	"testing"

	"sptrsv/internal/mesh"
	"sptrsv/internal/order"
	"sptrsv/internal/symbolic"
	"sptrsv/internal/taskdag"
)

// The referee: the subtree aggregation as it was written inside this
// package before it moved to taskdag.Aggregate, kept verbatim so the move
// is checked to produce the identical task partition.

// refereeGraph is the aggregated task tree the old code built.
type refereeGraph struct {
	nTasks             int
	taskOf             []int
	members            [][]int
	parent             []int
	children           [][]int
	nchildren          []int32
	fsources, bsources []int
	aggregated         int
}

func buildTaskGraph(sym *symbolic.Factor, grain, workers int) *refereeGraph {
	n := sym.NSuper
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
		cutoff = taskdag.Cutoff(total, workers)
	} else if grain < 0 {
		cutoff = 0
	}
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
	g := &refereeGraph{
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
			continue
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

// samePartition reports the first difference between the referee's graph
// and the new partition, or "" when they agree in members, edges, in-degrees,
// sources and the aggregated count. Down is compared in the referee's
// numbering (Down task i is Up task n−1−i); its sources as a set, since
// the referee listed them in Up order.
func samePartition(old *refereeGraph, p *taskdag.Subtrees) string {
	n := old.nTasks
	if p.Tasks() != n {
		return "task count"
	}
	if p.Aggregated != old.aggregated {
		return "aggregated count"
	}
	up, down := &p.Up, &p.Down
	for t := 0; t < n; t++ {
		if !slices.Equal(p.Members(t), old.members[t]) {
			return "members"
		}
		var wantUp []int
		if old.parent[t] >= 0 {
			wantUp = []int{old.parent[t]}
		}
		if !slices.Equal(up.Succ[up.Off[t]:up.Off[t+1]], wantUp) || up.Indeg[t] != old.nchildren[t] {
			return "Up edges"
		}
		i := n - 1 - t
		var gotDown []int
		for _, s := range down.Succ[down.Off[i]:down.Off[i+1]] {
			gotDown = append(gotDown, n-1-s)
		}
		if !slices.Equal(gotDown, old.children[t]) || down.Indeg[i] != int32(len(wantUp)) {
			return "Down edges"
		}
	}
	if !slices.Equal(up.Sources, old.fsources) {
		return "Up sources"
	}
	var bsources []int
	for _, s := range down.Sources {
		bsources = append(bsources, n-1-s)
	}
	slices.Sort(bsources)
	if !slices.Equal(bsources, old.bsources) {
		return "Down sources"
	}
	return ""
}

// TestPartitionMatchesReferee checks taskdag.Aggregate, through partition,
// against the referee over the mesh suite, with and without amalgamation,
// at every cutoff the engine can take: none (−1), one task per supernode
// (1), derived at 1, 2 and 8 workers, and whole trees (MaxInt).
func TestPartitionMatchesReferee(t *testing.T) {
	type cut struct{ grain, workers int }
	cuts := []cut{{-1, 1}, {1, 1}, {0, 1}, {0, 2}, {0, 8}, {math.MaxInt, 1}}
	for _, prob := range mesh.Suite() {
		sym, _, _ := symbolic.Analyze(prob.A.PermuteSym(order.NestedDissectionGeom(prob.A, prob.Geom)))
		for _, s := range []*symbolic.Factor{sym, symbolic.Amalgamate(sym, 0.15, 32)} {
			for _, c := range cuts {
				p, _, _ := partition(s, c.grain, c.workers)
				if diff := samePartition(buildTaskGraph(s, c.grain, c.workers), p); diff != "" {
					t.Errorf("%s (%d supernodes) grain=%s workers=%d: %s differ",
						prob.Name, s.NSuper, grainName(c.grain), c.workers, diff)
				}
			}
		}
	}
}
