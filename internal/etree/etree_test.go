package etree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sptrsv/internal/mesh"
	"sptrsv/internal/order"
	"sptrsv/internal/sparse"
)

// bruteEtree computes the elimination tree by the definition: parent(j) is
// the smallest i > j such that L(i,j) != 0, where L's pattern comes from a
// dense symbolic factorization.
func bruteEtree(a *sparse.SymCSC) []int {
	n := a.N
	pat := make([][]bool, n)
	for i := range pat {
		pat[i] = make([]bool, n)
	}
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			pat[a.RowIdx[p]][j] = true
		}
	}
	// symbolic right-looking fill: if L(i,k) and L(j,k) with i>j>k then L(i,j)
	for k := 0; k < n; k++ {
		for j := k + 1; j < n; j++ {
			if !pat[j][k] {
				continue
			}
			for i := j + 1; i < n; i++ {
				if pat[i][k] {
					pat[i][j] = true
				}
			}
		}
	}
	parent := make([]int, n)
	for j := 0; j < n; j++ {
		parent[j] = -1
		for i := j + 1; i < n; i++ {
			if pat[i][j] {
				parent[j] = i
				break
			}
		}
	}
	return parent
}

func TestComputeMatchesBruteForce(t *testing.T) {
	mats := []*sparse.SymCSC{
		mesh.Grid2D(4, 4),
		mesh.Grid2D(5, 3),
		mesh.Grid3D(3, 3, 2),
	}
	for _, a := range mats {
		want := bruteEtree(a)
		got := Compute(a).Parent
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("parent[%d] = %d, want %d", j, got[j], want[j])
			}
		}
	}
}

func TestComputeMatchesBruteForceRandomPerm(t *testing.T) {
	f := func(seed int64) bool {
		a := mesh.Grid2D(4, 5)
		rng := rand.New(rand.NewSource(seed))
		ap := a.PermuteSym(rng.Perm(a.N))
		want := bruteEtree(ap)
		got := Compute(ap).Parent
		for j := range want {
			if got[j] != want[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestStrictLowerIsTheTranspose checks the row form ComputeLower returns
// against the strict lower triangle read off entry by entry, on randomly
// permuted grids (rows with no entry, and rows in every order).
func TestStrictLowerIsTheTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 20; trial++ {
		a := mesh.Grid2D(3+rng.Intn(6), 3+rng.Intn(6))
		ap := a.PermuteSym(rng.Perm(a.N))
		tree, rowPtr, lower := ComputeLower(ap)
		if want := Compute(ap).Parent; !slices.Equal(tree.Parent, want) {
			t.Fatalf("trial %d: ComputeLower's tree %v, Compute's %v", trial, tree.Parent, want)
		}
		rows := make([][]int, ap.N)
		for j := 0; j < ap.N; j++ {
			for _, i := range ap.RowIdx[ap.ColPtr[j]:ap.ColPtr[j+1]] {
				if i > j {
					rows[i] = append(rows[i], j)
				}
			}
		}
		if len(rowPtr) != ap.N+1 || rowPtr[0] != 0 {
			t.Fatalf("trial %d: rowPtr %v", trial, rowPtr)
		}
		for i, want := range rows {
			if got := lower[rowPtr[i]:rowPtr[i+1]]; !slices.Equal(got, want) {
				t.Fatalf("trial %d: row %d lists %v, want %v", trial, i, got, want)
			}
		}
	}
}

func TestParentAlwaysGreater(t *testing.T) {
	a := mesh.Grid2D(8, 8)
	tr := Compute(a)
	for j, p := range tr.Parent {
		if p != -1 && p <= j {
			t.Fatalf("parent[%d] = %d not greater", j, p)
		}
	}
}

func TestPostorderProperties(t *testing.T) {
	a := mesh.Grid2D(9, 7)
	perm := order.NestedDissectionGeom(a, mesh.Grid2DGeometry(9, 7))
	ap := a.PermuteSym(perm)
	tr := Compute(ap)
	post := tr.Postorder()
	if !sparse.IsPerm(post) {
		t.Fatal("postorder not a permutation")
	}
	// children before parents
	pos := sparse.InvertPerm(post)
	for j, p := range tr.Parent {
		if p != -1 && pos[j] > pos[p] {
			t.Fatalf("node %d after its parent %d in postorder", j, p)
		}
	}
	// relabeled tree must be postordered
	rl := tr.Relabel(post)
	if !rl.IsPostordered() {
		t.Fatal("relabeled tree is not postordered")
	}
}

func TestDepthsAndHeight(t *testing.T) {
	// chain 0 <- 1 <- 2 <- 3 (parent[j] = j+1): tridiagonal matrix
	tr := sparse.NewTriplet(4)
	for i := 0; i < 4; i++ {
		tr.Add(i, i, 2)
		if i+1 < 4 {
			tr.Add(i+1, i, -1)
		}
	}
	a := tr.Compile()
	tree := Compute(a)
	for j := 0; j < 3; j++ {
		if tree.Parent[j] != j+1 {
			t.Fatalf("chain parent[%d] = %d", j, tree.Parent[j])
		}
	}
	d := tree.Depths()
	if d[3] != 0 || d[0] != 3 {
		t.Fatalf("depths = %v", d)
	}
	if tree.Height() != 4 {
		t.Fatalf("height = %d", tree.Height())
	}
	sz := tree.SubtreeSizes()
	if sz[3] != 4 || sz[0] != 1 {
		t.Fatalf("subtree sizes = %v", sz)
	}
}

func TestRootsAndChildren(t *testing.T) {
	a := mesh.Grid2D(6, 6)
	tree := Compute(a)
	roots := tree.Roots()
	if len(roots) != 1 || roots[0] != a.N-1 {
		t.Fatalf("roots = %v, want [%d] for connected graph", roots, a.N-1)
	}
	ch := tree.Children()
	count := 0
	for p, kids := range ch {
		for _, c := range kids {
			if tree.Parent[c] != p {
				t.Fatal("children inconsistent with parent")
			}
			count++
		}
	}
	if count != a.N-1 {
		t.Fatalf("total children = %d, want %d", count, a.N-1)
	}
}

func TestPostorderDeepChainNoOverflow(t *testing.T) {
	// RCM on a path graph gives a height-N etree; Postorder must not
	// recurse.
	n := 200000
	parent := make([]int, n)
	for i := 0; i < n-1; i++ {
		parent[i] = i + 1
	}
	parent[n-1] = -1
	tree := &Tree{Parent: parent}
	post := tree.Postorder()
	if len(post) != n || post[0] != 0 || post[n-1] != n-1 {
		t.Fatal("deep chain postorder wrong")
	}
}

// TestChildrenOneAllocation: the child lists of the whole tree share one
// backing array, so listing them costs O(1) allocations, not one per
// internal node; leaves get nil, and each list is ascending.
func TestChildrenOneAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	n := 2000
	parent := make([]int, n)
	for j := range parent {
		parent[j] = -1
		if j+1 < n && rng.Intn(50) != 0 {
			parent[j] = j + 1 + rng.Intn(min(5, n-j-1))
		}
	}
	tr := &Tree{Parent: parent}
	if allocs := testing.AllocsPerRun(3, func() { tr.Children() }); allocs > 3 {
		t.Fatalf("Children made %.0f allocations, want at most 3", allocs)
	}
	for v, kids := range tr.Children() {
		for k, c := range kids {
			if parent[c] != v || (k > 0 && kids[k-1] >= c) {
				t.Fatalf("children of %d = %v", v, kids)
			}
		}
		if (kids == nil) != (len(kids) == 0) {
			t.Fatalf("node %d: leaf list must be nil, got %#v", v, kids)
		}
	}
}

func TestIsPostorderedDetectsViolation(t *testing.T) {
	// star: 0,1,2 children of 3 — natural order IS a postorder
	tree := &Tree{Parent: []int{3, 3, 3, -1}}
	if !tree.IsPostordered() {
		t.Fatal("star should be postordered")
	}
	// 0 <- 2, 1 <- 3: subtrees interleave {0,2},{1,3}: not contiguous
	bad := &Tree{Parent: []int{2, 3, -1, -1}}
	if bad.IsPostordered() {
		t.Fatal("interleaved subtrees accepted as postordered")
	}
}
