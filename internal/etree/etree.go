// Package etree computes and manipulates elimination trees. The
// elimination tree (Liu) drives everything in this reproduction: supernode
// detection, the multifrontal factorization order, the subtree-to-subcube
// processor mapping, and the traversal order of the parallel forward and
// backward substitution algorithms.
package etree

import "sptrsv/internal/sparse"

// Tree is an elimination tree (or forest): Parent[j] is the parent column
// of column j, or -1 if j is a root. Parent[j] > j always holds.
type Tree struct {
	Parent []int
}

// N returns the number of nodes.
func (t *Tree) N() int { return len(t.Parent) }

// Compute returns the elimination tree of a symmetric matrix using Liu's
// algorithm with path compression. The matrix must be lower-triangular CSC.
func Compute(a *sparse.SymCSC) *Tree {
	t, _, _ := ComputeLower(a)
	return t
}

// ComputeLower is Compute that also returns the row form of a's strict
// lower triangle, which Liu's algorithm walks (see StrictLower), so a
// caller that needs it too does not build it twice.
func ComputeLower(a *sparse.SymCSC) (t *Tree, rowPtr, lower []int) {
	n := a.N
	parent := make([]int, n)
	ancestor := make([]int, n)
	for i := range parent {
		parent[i] = -1
		ancestor[i] = -1
	}
	rowPtr, lower = StrictLower(a)
	for i := 0; i < n; i++ {
		for _, j := range lower[rowPtr[i]:rowPtr[i+1]] {
			for j != -1 && j < i {
				jNext := ancestor[j]
				ancestor[j] = i
				if jNext == -1 {
					parent[j] = i
				}
				j = jNext
			}
		}
	}
	return &Tree{Parent: parent}, rowPtr, lower
}

// StrictLower returns the strict lower triangle of a in row form (CSR):
// row i lists lower[rowPtr[i]:rowPtr[i+1]], the columns k < i with
// a(i,k) ≠ 0, ascending — the transpose of a's below-diagonal entries.
func StrictLower(a *sparse.SymCSC) (rowPtr, lower []int) {
	n := a.N
	rowPtr = make([]int, n+1)
	for j := 0; j < n; j++ {
		for _, i := range a.RowIdx[a.ColPtr[j]:a.ColPtr[j+1]] {
			if i > j {
				rowPtr[i+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	// Fill each row from its start, which leaves rowPtr[i] at row i's
	// end, the start of row i+1; shifting by one restores the starts.
	lower = make([]int, rowPtr[n])
	for j := 0; j < n; j++ {
		for _, i := range a.RowIdx[a.ColPtr[j]:a.ColPtr[j+1]] {
			if i > j {
				lower[rowPtr[i]] = j
				rowPtr[i]++
			}
		}
	}
	copy(rowPtr[1:], rowPtr[:n])
	rowPtr[0] = 0
	return rowPtr, lower
}

// Children returns, for each node, its children in ascending order (nil
// for a leaf), every list carved from one backing array.
func (t *Tree) Children() [][]int {
	n := t.N()
	start := make([]int, n+1)
	for _, p := range t.Parent {
		if p >= 0 {
			start[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	kids := make([]int, start[n])
	ch := make([][]int, n)
	for j, p := range t.Parent { // ascending j gives ascending children
		if p >= 0 {
			if ch[p] == nil {
				ch[p] = kids[start[p]:start[p]:start[p+1]]
			}
			ch[p] = append(ch[p], j)
		}
	}
	return ch
}

// Roots returns the tree roots in ascending order.
func (t *Tree) Roots() []int {
	var r []int
	for j, p := range t.Parent {
		if p == -1 {
			r = append(r, j)
		}
	}
	return r
}

// Postorder returns a postordering of the tree: post[k] is the node
// occupying position k, children appear before parents, and each subtree
// occupies a contiguous range. Children are visited in ascending order.
func (t *Tree) Postorder() []int {
	n := t.N()
	ch := t.Children()
	post := make([]int, 0, n)
	// Iterative DFS to avoid recursion depth limits on chain-like trees
	// (RCM orderings produce height-Θ(N) trees).
	type frame struct {
		node int
		next int
	}
	stack := make([]frame, 0, 64)
	for _, root := range t.Roots() {
		stack = append(stack, frame{root, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(ch[f.node]) {
				c := ch[f.node][f.next]
				f.next++
				stack = append(stack, frame{c, 0})
			} else {
				post = append(post, f.node)
				stack = stack[:len(stack)-1]
			}
		}
	}
	return post
}

// Depths returns each node's depth (roots have depth 0).
func (t *Tree) Depths() []int {
	n := t.N()
	d := make([]int, n)
	// Parent[j] > j, so iterating from the top (j = n-1 down) guarantees a
	// parent's depth is final before its children are processed.
	for j := n - 1; j >= 0; j-- {
		if p := t.Parent[j]; p >= 0 {
			d[j] = d[p] + 1
		}
	}
	return d
}

// Height returns the tree height (max depth + 1); 0 for an empty tree.
func (t *Tree) Height() int {
	if t.N() == 0 {
		return 0
	}
	h := 0
	for _, d := range t.Depths() {
		if d+1 > h {
			h = d + 1
		}
	}
	return h
}

// SubtreeSizes returns the number of nodes in each node's subtree
// (including itself).
func (t *Tree) SubtreeSizes() []int {
	n := t.N()
	sz := make([]int, n)
	for j := 0; j < n; j++ {
		sz[j]++
		if p := t.Parent[j]; p >= 0 {
			sz[p] += sz[j]
		}
	}
	return sz
}

// IsPostordered reports whether each subtree occupies a contiguous index
// range ending at its root, i.e. parent[j] occurs after j and the natural
// order 0..n-1 is a valid postorder. It is enough that each node's range
// [j-sz[j]+1, j] nests inside its parent's: by induction from the leaves,
// a subtree of sz[j] nodes then fills its range of sz[j] indices, so the
// children of p partition [p-sz[p]+1, p-1] back to back, in ascending
// order.
func (t *Tree) IsPostordered() bool {
	sz := t.SubtreeSizes()
	for j, p := range t.Parent {
		if p == -1 {
			continue
		}
		if p <= j || j-sz[j]+1 < p-sz[p]+1 {
			return false
		}
	}
	return true
}

// Relabel returns the tree obtained by renumbering node old=post[k] to k,
// where post is a postorder (or any permutation).
func (t *Tree) Relabel(post []int) *Tree {
	inv := sparse.InvertPerm(post)
	np := make([]int, len(post))
	for k, old := range post {
		if p := t.Parent[old]; p == -1 {
			np[k] = -1
		} else {
			np[k] = inv[p]
		}
	}
	return &Tree{Parent: np}
}
