package taskdag

import (
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
