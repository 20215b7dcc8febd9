// Package order implements fill-reducing orderings. The paper's analysis
// assumes a nested-dissection ordering of 2-D/3-D neighborhood graphs,
// which produces balanced elimination trees with separator (supernode)
// sizes t(l) ≈ α·√(N)/2^(l/2) in 2-D and α·(N/2^l)^(2/3) in 3-D. Two
// nested-dissection variants are provided — geometric (for the generated
// grid problems, mirroring the grid-aware orderings used in the paper's
// experiments) and graph-based (level-structure separators, usable on any
// matrix) — plus reverse Cuthill-McKee and natural orderings as baselines.
//
// All orderings are returned in the convention of sparse.PermuteSym:
// perm[k] is the original index of the vertex placed at position k.
//
// Neither dissection allocates per recursion level. The geometric one
// splits each vertex set in place inside perm itself, through one scratch
// array; the graph one keeps stamped membership and visit marks, one level
// array and one queue for the whole recursion.
package order

import (
	"sort"

	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
)

// leafSize is the subproblem size below which dissection stops recursing.
const leafSize = 8

// Natural returns the identity ordering.
func Natural(n int) []int { return sparse.IdentityPerm(n) }

// NestedDissectionGeom orders the matrix by geometric nested dissection
// using grid coordinates: the vertex set is recursively bisected by a
// plane orthogonal to its longest bounding-box axis; the plane's vertices
// form the separator and are numbered after both halves.
func NestedDissectionGeom(a *sparse.SymCSC, g *mesh.Geometry) []int {
	if g.Dim*a.N != len(g.Coords) {
		panic("order: geometry does not match matrix")
	}
	perm := sparse.IdentityPerm(a.N)
	var lo, hi [3]int
	box(perm, g, &lo, &hi)
	geomRecurse(perm, make([]int, a.N), g, lo, hi)
	return perm
}

// box sets lo and hi to the bounding box of the vertices verts.
func box(verts []int, g *mesh.Geometry, lo, hi *[3]int) {
	for d := 0; d < g.Dim; d++ {
		lo[d], hi[d] = 1<<30, -(1 << 30)
	}
	for _, v := range verts {
		for d, c := range g.Coords[g.Dim*v : g.Dim*v+g.Dim] {
			lo[d], hi[d] = min(lo[d], c), max(hi[d], c)
		}
	}
}

// geomRecurse dissects the vertex set verts, whose bounding box is lo, hi,
// in place: verts is the range of perm the set is numbered into, so a
// leaf is already in its slots. Otherwise a stable three-way split leaves
// the left half at the front, then the right half, then the separator at
// the end of the range, where it stays; scratch (as long as verts)
// carries the right half forwards and the separator backwards from its
// end. The same pass takes the bounding boxes of both halves.
func geomRecurse(verts, scratch []int, g *mesh.Geometry, lo, hi [3]int) {
	if len(verts) <= leafSize {
		return
	}
	dim := g.Dim
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
		return
	}
	plane := lo[axis] + span/2
	var loL, hiL, loR, hiR [3]int
	for d := 0; d < dim; d++ {
		loL[d], hiL[d] = 1<<30, -(1 << 30)
		loR[d], hiR[d] = loL[d], hiL[d]
	}
	n := len(verts)
	nl, nr, ns := 0, 0, 0
	for _, v := range verts {
		cs := g.Coords[dim*v : dim*v+dim]
		switch c := cs[axis]; {
		case c < plane:
			verts[nl] = v
			nl++
			for d, c := range cs {
				loL[d], hiL[d] = min(loL[d], c), max(hiL[d], c)
			}
		case c > plane:
			scratch[nr] = v
			nr++
			for d, c := range cs {
				loR[d], hiR[d] = min(loR[d], c), max(hiR[d], c)
			}
		default:
			ns++
			scratch[n-ns] = v
		}
	}
	copy(verts[nl:], scratch[:nr])
	for k := 0; k < ns; k++ {
		verts[n-ns+k] = scratch[n-1-k]
	}
	geomRecurse(verts[:nl], scratch[:nl], g, loL, hiL)
	geomRecurse(verts[nl:nl+nr], scratch[nl:nl+nr], g, loR, hiR)
}

// NestedDissectionGraph orders any symmetric matrix by nested dissection
// with level-structure separators: a BFS from a pseudo-peripheral vertex
// splits the subgraph into two halves separated by a middle BFS level.
func NestedDissectionGraph(a *sparse.SymCSC) []int {
	n := a.N
	d := &dissector{adj: a.Adjacency(), mark: make([]int32, n), seen: make([]int32, n),
		level: make([]int32, n), queue: make([]int, 0, n), out: make([]int, 0, n)}
	d.recurse(sparse.IdentityPerm(n))
	return d.out
}

// dissector is the state one graph nested dissection shares across its
// whole recursion: mark[v] == stamp says v is in the current vertex set,
// seen[v] == visit says the current BFS reached v, whose level is level[v].
type dissector struct {
	adj          [][]int
	mark, seen   []int32
	level        []int32
	stamp, visit int32
	queue, out   []int
}

func (d *dissector) recurse(verts []int) {
	if len(verts) <= leafSize {
		d.out = append(d.out, verts...)
		return
	}
	d.stamp++
	for _, v := range verts {
		d.mark[v] = d.stamp
	}
	// Find a pseudo-peripheral start: BFS twice from an arbitrary vertex.
	if d.bfs(verts[0]) < len(verts) {
		d.components(verts)
		return
	}
	d.bfs(d.queue[len(d.queue)-1])
	maxLvl := int(d.level[d.queue[len(d.queue)-1]])
	if maxLvl < 2 {
		// Diameter too small to dissect; emit as-is.
		d.out = append(d.out, verts...)
		return
	}
	// Choose the cut level so the two halves are as balanced as possible.
	count := make([]int, maxLvl+1)
	for _, v := range verts {
		count[d.level[v]]++
	}
	best, bestBal := 1, -1
	cum := 0
	for l := 0; l < maxLvl; l++ {
		cum += count[l]
		lower := cum - count[l] // strictly below the candidate separator level l
		upper := len(verts) - cum
		bal := lower
		if upper < bal {
			bal = upper
		}
		if l >= 1 && bal > bestBal {
			bestBal = bal
			best = l
		}
	}
	var left, sep, right []int
	for _, v := range verts {
		switch l := int(d.level[v]); {
		case l < best:
			left = append(left, v)
		case l > best:
			right = append(right, v)
		default:
			sep = append(sep, v)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		d.out = append(d.out, verts...)
		return
	}
	d.recurse(left)
	d.recurse(right)
	d.out = append(d.out, sep...)
}

// bfs runs a breadth-first search from start within the current vertex
// set. It leaves the reached vertices in d.queue in visiting order (the
// last one is a pseudo-peripheral candidate) with their levels in d.level,
// and returns how many it reached.
func (d *dissector) bfs(start int) int {
	d.visit++
	d.seen[start], d.level[start] = d.visit, 0
	d.queue = append(d.queue[:0], start)
	for h := 0; h < len(d.queue); h++ {
		v := d.queue[h]
		for _, u := range d.adj[v] {
			if d.mark[u] == d.stamp && d.seen[u] != d.visit {
				d.seen[u], d.level[u] = d.visit, d.level[v]+1
				d.queue = append(d.queue, u)
			}
		}
	}
	return len(d.queue)
}

// components dissects a disconnected vertex set one connected component
// at a time, in the order of each component's first vertex in verts, and
// emits the last at most leafSize vertices in input order — exactly what
// peeling off the component of verts[0] and recursing on the rest would
// do, in one O(V+E) labelling pass instead of one per component.
func (d *dissector) components(verts []int) {
	// Label every vertex with its component; level holds the label until
	// the first recursion below reuses it.
	visit0 := d.visit
	var size []int
	for _, v := range verts {
		if d.seen[v] <= visit0 {
			d.bfs(v)
			for _, u := range d.queue {
				d.level[u] = int32(len(size))
			}
			size = append(size, len(d.queue))
		}
	}
	start := make([]int, len(size)+1)
	for c, sz := range size {
		start[c+1] = start[c] + sz
	}
	tail := len(size) // the first component of the emitted remainder
	for tail > 0 && len(verts)-start[tail-1] <= leafSize {
		tail--
	}
	byComp := make([]int, len(verts))
	next := append([]int(nil), start...)
	var rest []int
	for _, v := range verts {
		c := d.level[v]
		byComp[next[c]] = v
		next[c]++
		if int(c) >= tail {
			rest = append(rest, v)
		}
	}
	for c := 0; c < tail; c++ {
		d.recurse(byComp[start[c]:start[c+1]])
	}
	d.out = append(d.out, rest...)
}

// RCM returns the reverse Cuthill-McKee ordering (bandwidth-reducing
// baseline; produces deep, skinny elimination trees — the worst case for
// subtree-to-subcube parallelism, used in ablation benchmarks).
func RCM(a *sparse.SymCSC) []int {
	adj := a.Adjacency()
	n := a.N
	visited := make([]bool, n)
	var cm []int
	deg := func(v int) int { return len(adj[v]) }
	for root := 0; root < n; root++ {
		if visited[root] {
			continue
		}
		// Find a low-degree start within this component.
		comp := []int{root}
		visited[root] = true
		for i := 0; i < len(comp); i++ {
			for _, u := range adj[comp[i]] {
				if !visited[u] {
					visited[u] = true
					comp = append(comp, u)
				}
			}
		}
		start := comp[0]
		for _, v := range comp {
			if deg(v) < deg(start) {
				start = v
			}
		}
		// Cuthill-McKee BFS from start, neighbors by increasing degree.
		inQ := make(map[int]bool, len(comp))
		inQ[start] = true
		queue := []int{start}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			cm = append(cm, v)
			nbrs := make([]int, 0, len(adj[v]))
			for _, u := range adj[v] {
				if !inQ[u] {
					nbrs = append(nbrs, u)
					inQ[u] = true
				}
			}
			sort.Slice(nbrs, func(x, y int) bool { return deg(nbrs[x]) < deg(nbrs[y]) })
			queue = append(queue, nbrs...)
		}
	}
	// Reverse.
	for i, j := 0, len(cm)-1; i < j; i, j = i+1, j-1 {
		cm[i], cm[j] = cm[j], cm[i]
	}
	return cm
}
