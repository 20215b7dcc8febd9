package taskdag

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// graphOf builds a Graph from successor lists.
func graphOf(lists ...[]int) Graph {
	off := []int{0}
	succ := []int{}
	for _, l := range lists {
		succ = append(succ, l...)
		off = append(off, len(succ))
	}
	return NewGraph(off, succ)
}

// succOf returns task t's successors.
func succOf(g *Graph, t int) []int { return g.Succ[g.Off[t]:g.Off[t+1]] }

func TestNewGraphDerivesIndegreesAndSources(t *testing.T) {
	// 0 and 1 feed 2, which feeds 3 and 4, which feed 5: task 2 has two
	// predecessors and two successors.
	g := graphOf([]int{2}, []int{2}, []int{3, 4}, []int{5}, []int{5}, nil)
	if want := []int32{0, 0, 2, 1, 1, 2}; !slices.Equal(g.Indeg, want) {
		t.Fatalf("Indeg = %v, want %v", g.Indeg, want)
	}
	if !slices.Equal(g.Sources, []int{0, 1}) {
		t.Fatalf("Sources = %v, want [0 1]", g.Sources)
	}
}

func TestNewGraphRefusesNonTopologicalEdges(t *testing.T) {
	for _, lists := range [][][]int{
		{{1}, {0}},  // back edge
		{{0}},       // self loop
		{{2}, nil},  // out of range
		{nil, {-1}}, // negative
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: accepted", lists)
				}
			}()
			graphOf(lists...)
		}()
	}
}

func TestReverse(t *testing.T) {
	g := graphOf([]int{2}, []int{2}, []int{3, 4}, []int{5}, []int{5}, nil)
	r := g.Reverse()
	// Task t of g is task 5−t of r, and successors keep g's ascending
	// order: 3, 4 → 5 becomes 0 → {2, 1}.
	want := [][]int{{2, 1}, {3}, {3}, {5, 4}, nil, nil}
	for i, w := range want {
		if got := succOf(&r, i); !slices.Equal(got, w) && !(len(got) == 0 && w == nil) {
			t.Fatalf("reversed task %d: successors %v, want %v", i, got, w)
		}
	}
	if !slices.Equal(r.Sources, []int{0}) || !slices.Equal(r.Indeg, []int32{0, 1, 1, 2, 1, 1}) {
		t.Fatalf("reversed Sources %v Indeg %v", r.Sources, r.Indeg)
	}
	rr := r.Reverse()
	for tk := 0; tk < g.Tasks(); tk++ {
		if !slices.Equal(slices.Sorted(slices.Values(succOf(&rr, tk))), succOf(&g, tk)) {
			t.Fatalf("Reverse twice changed task %d: %v, want %v", tk, succOf(&rr, tk), succOf(&g, tk))
		}
	}
}

// TestAggregate cuts a hand-built forest. Tree A: 0,1 → 2; 3 → 4; 2,4 → 5.
// Tree B: 6 → 7. Every node weighs 1 except 5 (10).
func TestAggregate(t *testing.T) {
	parent := []int{2, 2, 5, 4, 5, -1, 7, -1}
	work := []int64{1, 1, 1, 1, 1, 10, 1, 1}
	for _, tc := range []struct {
		name       string
		cutoff     int64
		members    [][]int
		up         [][]int
		aggregated int
	}{
		{"none", 0,
			[][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}},
			[][]int{{2}, {2}, {5}, {4}, {5}, nil, {7}, nil}, 0},
		{"light subtrees", 3,
			[][]int{{0, 1, 2}, {3, 4}, {5}, {6, 7}},
			[][]int{{2}, {2}, nil, nil}, 3},
		{"whole trees", 1 << 40,
			[][]int{{0, 1, 2, 3, 4, 5}, {6, 7}},
			[][]int{nil, nil}, 2},
	} {
		p := Aggregate(parent, work, tc.cutoff)
		if p.Tasks() != len(tc.members) || p.Aggregated != tc.aggregated {
			t.Fatalf("%s: %d tasks, %d aggregated; want %d, %d", tc.name, p.Tasks(), p.Aggregated, len(tc.members), tc.aggregated)
		}
		for tk, want := range tc.members {
			if got := p.Members(tk); !slices.Equal(got, want) {
				t.Fatalf("%s: task %d members %v, want %v", tc.name, tk, got, want)
			}
			if got := succOf(&p.Up, tk); !slices.Equal(got, tc.up[tk]) && !(len(got) == 0 && tc.up[tk] == nil) {
				t.Fatalf("%s: task %d successors %v, want %v", tc.name, tk, got, tc.up[tk])
			}
		}
		down := p.Up.Reverse()
		if !slices.Equal(p.Down.Off, down.Off) || !slices.Equal(p.Down.Succ, down.Succ) {
			t.Fatalf("%s: Down is not Up reversed", tc.name)
		}
	}
}

func TestAggregateRefusesUnorderedParent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a parent before its child was accepted")
		}
	}()
	Aggregate([]int{-1, 0}, []int64{1, 1}, 0)
}

// TestCutoff pins the one tree-cut rule the factorization and the sweeps
// share: every tree one task at one worker, then 1/(8·workers) of the
// total work, never below 4096.
func TestCutoff(t *testing.T) {
	for _, tc := range []struct {
		total   int64
		workers int
		want    int64
	}{
		{0, 1, 0}, {100, 1, 100}, {1 << 30, 1, 1 << 30},
		{100, 2, 4096}, {1 << 20, 2, 1 << 16}, {1 << 20, 8, 1 << 14}, {1 << 20, 64, 4096},
	} {
		if got := Cutoff(tc.total, tc.workers); got != tc.want {
			t.Errorf("Cutoff(%d, %d) = %d, want %d", tc.total, tc.workers, got, tc.want)
		}
	}
}

// randomPostorderedForest returns the parent array of a random forest of
// n nodes numbered in postorder: each new node adopts a random number of
// the most recent pending roots, which are the subtrees right before it.
func randomPostorderedForest(rng *rand.Rand, n int) []int {
	parent := make([]int, n)
	var roots []int
	for s := range parent {
		parent[s] = -1
		k := rng.Intn(min(len(roots), 3) + 1)
		for _, c := range roots[len(roots)-k:] {
			parent[c] = s
		}
		roots = append(roots[:len(roots)-k], s)
	}
	return parent
}

// TestStackNeverOverwritesALiveUpdate lays out random postordered forests
// cut at several cutoffs and replays random executions the executor could
// produce on 1, 2, 3 and 8 workers: a task starts once its predecessors
// are done, at most that many tasks are under way, and each step runs one
// member of one of them — reads its children's updates, then writes its
// own. No write may touch a cell of an update its parent has not read yet,
// and no stack may be longer than one that gives every task a region of
// its own.
func TestStackNeverOverwritesALiveUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	shared := 0 // layouts shorter than a region per task
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		parent := randomPostorderedForest(rng, n)
		children := make([][]int, n)
		work, sizes := make([]int64, n), make([]int, n)
		var total int64
		for s, p := range parent {
			if p >= 0 {
				children[p] = append(children[p], s)
			}
			work[s] = 1 + rng.Int63n(20)
			total += work[s]
			sizes[s] = rng.Intn(6) // zero-sized updates too
		}
		for _, cutoff := range []int64{0, 1 + rng.Int63n(total), total} {
			p := Aggregate(parent, work, cutoff)
			off, slab := p.Stack(children, func(s int) int { return sizes[s] })
			if own := regionPerTask(p, children, sizes); slab > own {
				t.Fatalf("trial %d, cutoff %d: stack of %d, longer than a region per task (%d)", trial, cutoff, slab, own)
			} else if slab < own {
				shared++
			}
			for _, workers := range []int{1, 2, 3, 8} {
				if err := replayStack(rng, p, parent, children, sizes, off, slab, workers); err != "" {
					t.Fatalf("trial %d, %d nodes, cutoff %d, %d workers: %s (parent %v)", trial, n, cutoff, workers, err, parent)
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no layout continued a region: the nodes above the cut never shared one")
	}
}

// regionPerTask is the length of a stack that gives every task a region
// of its own, as long as the task's peak.
func regionPerTask(p *Subtrees, children [][]int, sizes []int) int {
	total := 0
	top := make([]int, len(sizes)) // each update's start, relative to its task's region
	for tk := 0; tk < p.Tasks(); tk++ {
		h, peak := 0, 0
		for _, s := range p.Members(tk) {
			for _, c := range children[s] {
				if p.task[c] == tk {
					h = top[c]
					break
				}
			}
			top[s] = h
			h += sizes[s]
			peak = max(peak, h)
		}
		total += peak
	}
	return total
}

// replayStack runs one random execution of p's Up graph on the given
// number of workers against the layout off and returns what went wrong.
func replayStack(rng *rand.Rand, p *Subtrees, parent []int, children [][]int, sizes, off []int, slab, workers int) string {
	owner := make([]int, slab) // the node whose unread update holds the cell, or −1
	for i := range owner {
		owner[i] = -1
	}
	indeg := slices.Clone(p.Up.Indeg)
	ready := slices.Clone(p.Up.Sources)
	var running []int // tasks under way
	next := make([]int, p.Tasks())
	for done := 0; done < len(parent); done++ {
		for len(running) < workers && len(ready) > 0 {
			i := rng.Intn(len(ready))
			running = append(running, ready[i])
			ready = slices.Delete(ready, i, i+1)
		}
		if len(running) == 0 {
			return "no task ready"
		}
		r := rng.Intn(len(running))
		tk := running[r]
		s := p.Members(tk)[next[tk]]
		next[tk]++
		for _, c := range children[s] {
			for i := off[c]; i < off[c]+sizes[c]; i++ {
				if owner[i] != c {
					return fmt.Sprintf("node %d reads child %d's update after it was overwritten", s, c)
				}
				owner[i] = -1
			}
		}
		if off[s]+sizes[s] > slab {
			return fmt.Sprintf("node %d's update runs past the stack", s)
		}
		for i := off[s]; i < off[s]+sizes[s]; i++ {
			if owner[i] != -1 {
				return fmt.Sprintf("node %d overwrites node %d's unread update", s, owner[i])
			}
			owner[i] = s
		}
		if next[tk] == len(p.Members(tk)) {
			running = slices.Delete(running, r, r+1)
			for _, succ := range p.Up.Succ[p.Up.Off[tk]:p.Up.Off[tk+1]] {
				if indeg[succ]--; indeg[succ] == 0 {
					ready = append(ready, succ)
				}
			}
		}
	}
	return ""
}
