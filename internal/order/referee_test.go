package order

import (
	"math/rand"
	"testing"
	"time"

	"sptrsv/internal/sparse"
)

// refNestedDissectionGraph is NestedDissectionGraph as it stood before the
// stamped arrays: a fresh map per recursion level, one component peeled
// off per level. Kept as the referee the O(V+E)-per-level recursion is
// held to.
func refNestedDissectionGraph(a *sparse.SymCSC) []int {
	perm := make([]int, 0, a.N)
	refGraphRecurse(a.Adjacency(), sparse.IdentityPerm(a.N), &perm)
	return perm
}

func refGraphRecurse(adj [][]int, verts []int, out *[]int) {
	if len(verts) <= leafSize {
		*out = append(*out, verts...)
		return
	}
	inSet := make(map[int]bool, len(verts))
	for _, v := range verts {
		inSet[v] = true
	}
	_, last := refBFSLevels(adj, inSet, verts[0])
	levels, _ := refBFSLevels(adj, inSet, last)
	maxLvl, reach := 0, 0
	for _, v := range verts {
		if l, ok := levels[v]; ok {
			reach++
			maxLvl = max(maxLvl, l)
		}
	}
	if reach < len(verts) {
		var comp, rest []int
		for _, v := range verts {
			if _, ok := levels[v]; ok {
				comp = append(comp, v)
			} else {
				rest = append(rest, v)
			}
		}
		refGraphRecurse(adj, comp, out)
		refGraphRecurse(adj, rest, out)
		return
	}
	if maxLvl < 2 {
		*out = append(*out, verts...)
		return
	}
	count := make([]int, maxLvl+1)
	for _, v := range verts {
		count[levels[v]]++
	}
	best, bestBal, cum := 1, -1, 0
	for l := 0; l < maxLvl; l++ {
		cum += count[l]
		bal := min(cum-count[l], len(verts)-cum)
		if l >= 1 && bal > bestBal {
			bestBal, best = bal, l
		}
	}
	var left, sep, right []int
	for _, v := range verts {
		switch l := levels[v]; {
		case l < best:
			left = append(left, v)
		case l > best:
			right = append(right, v)
		default:
			sep = append(sep, v)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		*out = append(*out, verts...)
		return
	}
	refGraphRecurse(adj, left, out)
	refGraphRecurse(adj, right, out)
	*out = append(*out, sep...)
}

func refBFSLevels(adj [][]int, inSet map[int]bool, start int) (map[int]int, int) {
	levels := map[int]int{start: 0}
	queue := []int{start}
	last := start
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		last = v
		for _, u := range adj[v] {
			if _, seen := levels[u]; inSet[u] && !seen {
				levels[u] = levels[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return levels, last
}

// randomForestOfGraphs scatters k random sparse components of random
// sizes (isolated vertices to a few dozen) over shuffled vertex numbers, so
// components interleave and some fall under leafSize.
func randomForestOfGraphs(rng *rand.Rand) *sparse.SymCSC {
	var sizes []int
	n := 0
	for k := 1 + rng.Intn(12); k > 0; k-- {
		sz := 1 + rng.Intn(40)
		sizes = append(sizes, sz)
		n += sz
	}
	label := rng.Perm(n)
	tr := sparse.NewTriplet(n)
	base := 0
	for _, sz := range sizes {
		for v := 0; v < sz; v++ {
			tr.Add(label[base+v], label[base+v], 4)
			if v > 0 { // a random spanning tree plus a few chords
				tr.Add(label[base+v], label[base+rng.Intn(v)], -1)
			}
			if v > 1 && rng.Intn(3) == 0 {
				tr.Add(label[base+v], label[base+rng.Intn(v)], -1)
			}
		}
		base += sz
	}
	return tr.Compile()
}

func TestGraphNDMatchesReferee(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 300; trial++ {
		a := randomForestOfGraphs(rng)
		got, want := NestedDissectionGraph(a), refNestedDissectionGraph(a)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d (n=%d): perm[%d] = %d, want %d", trial, a.N, k, got[k], want[k])
			}
		}
	}
}

// TestGraphNDManyComponentsLinear: peeling one component per recursion
// level made dissection quadratic in the number of components (4.3 s at
// 8 000 pairs on a 2-vCPU Xeon, minutes extrapolated to 100 000).
func TestGraphNDManyComponentsLinear(t *testing.T) {
	a := blocks2x2(100000)
	start := time.Now()
	p := NestedDissectionGraph(a)
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("200 000 vertices in 2×2 blocks took %v, want < 5 s", el)
	}
	if !sparse.IsPerm(p) {
		t.Fatal("not a permutation")
	}
	// Each pair is dissected in the order of its first vertex, except the
	// last leafSize vertices, emitted in input order — here the same.
	for k, v := range p {
		if v != k {
			t.Fatalf("perm[%d] = %d, want the identity", k, v)
		}
	}
}
