package order

import (
	"math/rand"
	"testing"
	"time"

	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
)

// refNestedDissectionGeom is NestedDissectionGeom as it stood before the
// in-place partition: fresh left, separator and right slices at every
// level, appended to a growing perm. Kept as the referee the in-place
// recursion is held to.
func refNestedDissectionGeom(a *sparse.SymCSC, g *mesh.Geometry) []int {
	if g.Dim*a.N != len(g.Coords) {
		panic("order: geometry does not match matrix")
	}
	verts := make([]int, a.N)
	for i := range verts {
		verts[i] = i
	}
	perm := make([]int, 0, a.N)
	refGeomRecurse(verts, g, &perm)
	return perm
}

func refGeomRecurse(verts []int, g *mesh.Geometry, out *[]int) {
	if len(verts) <= leafSize {
		*out = append(*out, verts...)
		return
	}
	dim := g.Dim
	lo := make([]int, dim)
	hi := make([]int, dim)
	for d := 0; d < dim; d++ {
		lo[d] = 1 << 30
		hi[d] = -(1 << 30)
	}
	for _, v := range verts {
		for d := 0; d < dim; d++ {
			c := g.Coords[dim*v+d]
			if c < lo[d] {
				lo[d] = c
			}
			if c > hi[d] {
				hi[d] = c
			}
		}
	}
	axis, span := 0, -1
	for d := 0; d < dim; d++ {
		if hi[d]-lo[d] > span {
			span = hi[d] - lo[d]
			axis = d
		}
	}
	if span == 0 {
		// All vertices share coordinates (e.g. many dofs on one node):
		// no geometric separator exists; emit in natural order.
		*out = append(*out, verts...)
		return
	}
	plane := lo[axis] + span/2
	var left, sep, right []int
	for _, v := range verts {
		switch c := g.Coords[dim*v+axis]; {
		case c < plane:
			left = append(left, v)
		case c > plane:
			right = append(right, v)
		default:
			sep = append(sep, v)
		}
	}
	refGeomRecurse(left, g, out)
	refGeomRecurse(right, g, out)
	*out = append(*out, sep...)
}

func TestGeomNDMatchesReferee(t *testing.T) {
	type problem struct {
		name string
		a    *sparse.SymCSC
		g    *mesh.Geometry
	}
	var ps []problem
	for _, p := range mesh.Suite() {
		ps = append(ps, problem{p.Name, p.A, p.Geom})
	}
	// Several dofs per node: leaves whose vertices share one coordinate
	// (the span == 0 case) beside ordinary leaves.
	for _, s := range [][3]int{{5, 4, 3}, {3, 3, 8}, {1, 1, 12}, {2, 7, 5}, {9, 1, 2}} {
		ps = append(ps, problem{"shell", mesh.Shell(s[0], s[1], s[2]), mesh.ShellGeometry(s[0], s[1], s[2])})
	}
	for _, s := range [][2]int{{1, 1}, {1, 40}, {40, 1}, {1, 9}, {9, 1}, {2, 33}, {17, 3}, {7, 7}} {
		ps = append(ps, problem{"grid", mesh.Grid2D(s[0], s[1]), mesh.Grid2DGeometry(s[0], s[1])})
	}
	for _, s := range [][3]int{{1, 1, 30}, {1, 30, 1}, {30, 1, 1}, {3, 5, 7}, {9, 4, 1}, {5, 5, 5}, {2, 3, 11}} {
		ps = append(ps, problem{"cube", mesh.Grid3D(s[0], s[1], s[2]), mesh.Grid3DGeometry(s[0], s[1], s[2])})
	}
	for _, p := range ps {
		got, want := NestedDissectionGeom(p.a, p.g), refNestedDissectionGeom(p.a, p.g)
		if len(got) != len(want) {
			t.Fatalf("%s (n=%d): %d entries, want %d", p.name, p.a.N, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s (n=%d): perm[%d] = %d, want %d", p.name, p.a.N, k, got[k], want[k])
			}
		}
	}
}

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
