// Package symbolic performs supernodal symbolic factorization: it computes
// the fill pattern of the Cholesky factor L, partitions its columns into
// supernodes (maximal groups of consecutive columns with identical
// below-diagonal pattern — the dense trapezoids the paper's solvers
// operate on), and builds the supernodal elimination tree that drives both
// the multifrontal factorization and the parallel triangular solvers.
//
// The analysis runs in near-linear time and allocates once per output
// array, not once per column, supernode or merge: column counts come from
// the row-subtree (skeleton) method without forming a column of L, the
// supernodes' row lists are carved from one backing array and filled in
// ascending order by climbing the supernodal tree from each entry of A,
// and Amalgamate decides each merge from row counts alone.
package symbolic

import (
	"fmt"
	"sync"

	"sptrsv/internal/etree"
	"sptrsv/internal/sparse"
)

// Factor holds the symbolic structure of L for a (postordered) matrix.
type Factor struct {
	N        int
	Tree     *etree.Tree // column elimination tree, postordered
	ColCount []int       // nnz of L(:,j), diagonal included
	NnzL     int64       // total nonzeros of L

	// Supernode partition: supernode s spans columns
	// Super[s] .. Super[s+1]-1 (width t_s); there are NSuper supernodes.
	NSuper     int
	Super      []int
	ColToSuper []int

	// Rows[s] lists the (global) row indices of supernode s's columns'
	// common pattern, ascending; its first t_s entries are the supernode's
	// own columns (the dense triangular top of the trapezoid), the
	// remaining entries are the below-supernode rows (the rectangular
	// bottom). len(Rows[s]) == ColCount[Super[s]] == n_s.
	Rows [][]int

	// SParent is the supernodal elimination tree; SChildren its inverse.
	SParent   []int
	SChildren [][]int

	FactorFlops      int64 // multiply-add + divide + sqrt count of numeric factorization
	SolveFlopsPerRHS int64 // flops of one forward+backward solve with one RHS

	// rel is every supernode's relative indices (see Rel), built once at
	// the first call; relErr is the missing row that stopped the build.
	relOnce sync.Once
	rel     [][]int32
	relErr  error
}

// Width returns the number of columns t of supernode s.
func (f *Factor) Width(s int) int { return f.Super[s+1] - f.Super[s] }

// Height returns n_s = total rows of supernode s's trapezoid.
func (f *Factor) Height(s int) int { return len(f.Rows[s]) }

// Rel returns the multifrontal relative indices of supernode c: entry k
// is the position in Rows[SParent[c]] of c's k-th row below its columns,
// Rows[c][Width(c)+k] — where the child→parent transfer of both sweeps
// and the factorization's extend-add land each of c's update rows. A root
// has none. Every supernode's indices are computed together, into one
// backing array, at the first call from any goroutine; the slice is
// shared and read-only. Rel panics, naming the child, the row and the
// parent, when a below row is missing from the parent (Validate rejects
// such a factor).
func (f *Factor) Rel(c int) []int32 {
	f.relOnce.Do(func() { f.rel, f.relErr = f.relIndices() })
	if f.relErr != nil {
		panic(f.relErr)
	}
	return f.rel[c]
}

// relIndices computes Rel for every supernode by a merge scan of each
// child's below rows against its parent's (both ascending), or names the
// first below row missing from its parent.
func (f *Factor) relIndices() ([][]int32, error) {
	total := 0
	for c := 0; c < f.NSuper; c++ {
		if f.SParent[c] >= 0 {
			total += f.Height(c) - f.Width(c)
		}
	}
	back := make([]int32, total)
	rel := make([][]int32, f.NSuper)
	for c := range rel {
		p := f.SParent[c]
		if p < 0 {
			continue
		}
		below, prows := f.Rows[c][f.Width(c):], f.Rows[p]
		rel[c], back = back[:len(below):len(below)], back[len(below):]
		at := 0
		for k, r := range below {
			for at < len(prows) && prows[at] < r {
				at++
			}
			if at == len(prows) || prows[at] != r {
				return nil, fmt.Errorf("symbolic: row %d of supernode %d missing from its parent %d", r, c, p)
			}
			rel[c][k] = int32(at)
		}
	}
	return rel, nil
}

// SRoots returns the roots of the supernodal tree.
func (f *Factor) SRoots() []int {
	var r []int
	for s, p := range f.SParent {
		if p == -1 {
			r = append(r, s)
		}
	}
	return r
}

// Analyze computes the symbolic factorization of a. The matrix is assumed
// to carry a fill-reducing ordering already; Analyze additionally
// postorders the elimination tree (so each subtree is a contiguous column
// range — required by supernode detection and subtree-to-subcube mapping)
// and returns the postorder permutation it applied together with the
// correspondingly permuted matrix. The total ordering relative to the
// caller's original matrix is thus fillPerm∘post.
func Analyze(a *sparse.SymCSC) (*Factor, []int, *sparse.SymCSC) {
	// lower lists, per row i, the columns k < i with a(i,k) ≠ 0: the strict
	// lower triangle of a, transposed, which the elimination tree is
	// computed from and the row patterns below are filled from.
	tree, rowPtr, lower := etree.ComputeLower(a)
	var post []int
	if tree.IsPostordered() {
		// The nested-dissection orders leave the tree postordered, and
		// the postorder of such a tree is the identity.
		post = sparse.IdentityPerm(a.N)
	} else {
		// The elimination tree is unique, so relabelling it by the
		// postorder gives the tree of the permuted matrix.
		post = tree.Postorder()
		a, tree = a.PermuteSym(post), tree.Relabel(post)
		rowPtr, lower = etree.StrictLower(a)
	}
	n := a.N
	colCount := columnCounts(a, tree.Parent)

	// Supernode detection: column j+1 extends j's supernode iff
	// parent(j) == j+1 and colCount[j+1] == colCount[j]-1 (this forces
	// pattern(j+1) == pattern(j)\{j}).
	extends := func(j int) bool { return tree.Parent[j-1] == j && colCount[j] == colCount[j-1]-1 }
	nsuper := 1
	for j := 1; j < n; j++ {
		if !extends(j) {
			nsuper++
		}
	}
	super := make([]int, 1, nsuper+1)
	for j := 1; j < n; j++ {
		if !extends(j) {
			super = append(super, j)
		}
	}
	super = append(super, n)
	colToSuper := make([]int, n)
	height := 0
	for s := 0; s < nsuper; s++ {
		for j := super[s]; j < super[s+1]; j++ {
			colToSuper[j] = s
		}
		height += colCount[super[s]]
	}

	sparent := make([]int, nsuper)
	for s := range sparent {
		sparent[s] = -1
		if p := tree.Parent[super[s+1]-1]; p != -1 {
			sparent[s] = colToSuper[p]
		}
	}
	schildren := (&etree.Tree{Parent: sparent}).Children()

	// Second symbolic pass to materialize each supernode's row pattern
	// (the pattern of its first column), every list carved from one
	// backing array: the supernode's own columns, then the rows below
	// them. Row i of L is the union of the tree paths from each k < i
	// with a(i,k) ≠ 0 up to i, so walking the rows in ascending order and
	// climbing the supernodal tree from each such k (lower's row i)
	// appends i to every supernode whose pattern holds it below its
	// columns, in order, with no sort.
	rows := make([][]int, nsuper)
	back := make([]int, height)
	fill := make([]int, nsuper) // rows[s]'s next slot in back
	for s, at := 0, 0; s < nsuper; s++ {
		h := colCount[super[s]]
		rows[s] = back[at : at+h : at+h]
		for j := super[s]; j < super[s+1]; j++ {
			back[at] = j
			at++
		}
		fill[s] = at
		at += h - (super[s+1] - super[s])
	}
	visited := make([]int, nsuper) // visited[s] == i+1: row i is in rows[s]
	for i := 0; i < n; i++ {
		top := colToSuper[i]
		for _, k := range lower[rowPtr[i]:rowPtr[i+1]] {
			for s := colToSuper[k]; s != top && visited[s] != i+1; s = sparent[s] {
				visited[s] = i + 1
				back[fill[s]] = i
				fill[s]++
			}
		}
	}
	for s, end := 0, 0; s < nsuper; s++ {
		end += len(rows[s])
		if fill[s] != end {
			panic(fmt.Sprintf("symbolic: supernode %d pattern size %d != colcount %d",
				s, len(rows[s])-end+fill[s], len(rows[s])))
		}
	}

	var nnzL, factorFlops, solveFlops int64
	for j := 0; j < n; j++ {
		l := int64(colCount[j] - 1)
		nnzL += l + 1
		factorFlops += l*(l+1) + l + 1
		solveFlops += 2*(2*l) + 2 // fwd: 2l mul-add + 1 div; bwd: same
	}

	return &Factor{
		N:                n,
		Tree:             tree,
		ColCount:         colCount,
		NnzL:             nnzL,
		NSuper:           nsuper,
		Super:            super,
		ColToSuper:       colToSuper,
		Rows:             rows,
		SParent:          sparent,
		SChildren:        schildren,
		FactorFlops:      factorFlops,
		SolveFlopsPerRHS: solveFlops,
	}, post, a
}

// columnCounts returns nnz(L(:,j)), diagonal included, for the matrix a
// whose postordered elimination tree is parent, without forming any column
// of L: the row-subtree (skeleton) count of Gilbert, Ng & Peyton, as
// CSparse's cs_counts with the identity postorder. Entry a(i,j), i > j,
// adds one at j when j is a new leaf of row i's subtree, and takes one
// back at the least common ancestor of j and the row's previous leaf;
// summing these deltas up the tree gives the counts.
func columnCounts(a *sparse.SymCSC, parent []int) []int {
	n := a.N
	count := make([]int, n)
	first := make([]int, n) // first descendant of j in postorder
	maxFirst := make([]int, n)
	prevLeaf := make([]int, n)
	ancestor := make([]int, n) // disjoint-set forest for the LCA queries
	for j := range first {
		first[j], maxFirst[j], prevLeaf[j], ancestor[j] = -1, -1, -1, j
	}
	for j := 0; j < n; j++ {
		if first[j] == -1 {
			count[j] = 1 // j is a leaf
		}
		for k := j; k != -1 && first[k] == -1; k = parent[k] {
			first[k] = j
		}
		if p := parent[j]; p != -1 {
			count[p]--
		}
		for _, i := range a.RowIdx[a.ColPtr[j]:a.ColPtr[j+1]] {
			if i <= j || first[j] <= maxFirst[i] {
				continue // the diagonal, or j is no new leaf of row i's subtree
			}
			maxFirst[i] = first[j]
			count[j]++
			prev := prevLeaf[i]
			prevLeaf[i] = j
			if prev == -1 {
				continue
			}
			q := prev
			for q != ancestor[q] {
				q = ancestor[q]
			}
			for s := prev; s != q; { // path compression
				up := ancestor[s]
				ancestor[s] = q
				s = up
			}
			count[q]--
		}
		if p := parent[j]; p != -1 {
			ancestor[j] = p
		}
	}
	for j, p := range parent {
		if p != -1 {
			count[p] += count[j]
		}
	}
	return count
}

// Dense returns the symbolic factor of a dense n×n SPD matrix: a single
// supernode holding the entire lower triangle. Running the sparse
// machinery on it yields exactly the dense triangular solver of the
// paper's Section 3.3 (the scalability reference point).
func Dense(n int) *Factor {
	parent := make([]int, n)
	colCount := make([]int, n)
	rows := make([]int, n)
	for j := 0; j < n; j++ {
		parent[j] = j + 1
		colCount[j] = n - j
		rows[j] = j
	}
	parent[n-1] = -1
	var nnzL, factorFlops, solveFlops int64
	for j := 0; j < n; j++ {
		l := int64(colCount[j] - 1)
		nnzL += l + 1
		factorFlops += l*(l+1) + l + 1
		solveFlops += 2*(2*l) + 2
	}
	return &Factor{
		N:                n,
		Tree:             &etree.Tree{Parent: parent},
		ColCount:         colCount,
		NnzL:             int64(n) * int64(n+1) / 2,
		NSuper:           1,
		Super:            []int{0, n},
		ColToSuper:       make([]int, n),
		Rows:             [][]int{rows},
		SParent:          []int{-1},
		SChildren:        [][]int{nil},
		FactorFlops:      factorFlops,
		SolveFlopsPerRHS: solveFlops,
	}
}

// Validate cross-checks the internal invariants of the symbolic factor.
func (f *Factor) Validate() error {
	if f.Super[0] != 0 || f.Super[f.NSuper] != f.N {
		return fmt.Errorf("symbolic: supernode partition does not cover columns")
	}
	var nnz int64
	for s := 0; s < f.NSuper; s++ {
		t := f.Width(s)
		ns := f.Height(s)
		if t <= 0 {
			return fmt.Errorf("symbolic: supernode %d empty", s)
		}
		if ns < t {
			return fmt.Errorf("symbolic: supernode %d height %d < width %d", s, ns, t)
		}
		prev := -1
		for k, r := range f.Rows[s] {
			if r <= prev || r >= f.N {
				return fmt.Errorf("symbolic: supernode %d rows not ascending in [0, %d)", s, f.N)
			}
			if k < t && r != f.Super[s]+k {
				return fmt.Errorf("symbolic: supernode %d top row %d != column", s, k)
			}
			prev = r
		}
		if f.SParent[s] < 0 && ns != t {
			return fmt.Errorf("symbolic: root supernode %d has below rows", s)
		}
		nnz += int64(ns*t - t*(t-1)/2)
	}
	if nnz != f.NnzL {
		return fmt.Errorf("symbolic: panel sizes sum %d != NnzL %d", nnz, f.NnzL)
	}
	// every below row must be a row of the parent: the invariant Rel
	// relies on
	_, err := f.relIndices()
	return err
}
