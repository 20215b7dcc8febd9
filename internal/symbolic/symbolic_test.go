package symbolic

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"sptrsv/internal/mesh"
	"sptrsv/internal/order"
	"sptrsv/internal/sparse"
)

// denseFill computes the exact fill pattern of L by dense symbolic
// elimination (reference implementation).
func denseFill(a *sparse.SymCSC) [][]bool {
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
	for k := 0; k < n; k++ {
		for j := k + 1; j < n; j++ {
			if !pat[j][k] {
				continue
			}
			for i := j; i < n; i++ {
				if pat[i][k] {
					pat[i][j] = true
				}
			}
		}
	}
	return pat
}

func analyzeGrid(t *testing.T, nx, ny int) (*Factor, *sparse.SymCSC) {
	t.Helper()
	a := mesh.Grid2D(nx, ny)
	perm := order.NestedDissectionGeom(a, mesh.Grid2DGeometry(nx, ny))
	f, _, ap := Analyze(a.PermuteSym(perm))
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	return f, ap
}

func TestColCountsMatchDenseFill(t *testing.T) {
	a := mesh.Grid2D(5, 5)
	perm := order.NestedDissectionGeom(a, mesh.Grid2DGeometry(5, 5))
	f, _, ap := Analyze(a.PermuteSym(perm))
	pat := denseFill(ap)
	n := ap.N
	for j := 0; j < n; j++ {
		cnt := 0
		for i := j; i < n; i++ {
			if pat[i][j] {
				cnt++
			}
		}
		if cnt != f.ColCount[j] {
			t.Fatalf("colcount[%d] = %d, dense fill says %d", j, f.ColCount[j], cnt)
		}
	}
}

func TestSupernodeRowsMatchDenseFill(t *testing.T) {
	a := mesh.Grid3D(3, 3, 3)
	perm := order.NestedDissectionGeom(a, mesh.Grid3DGeometry(3, 3, 3))
	f, _, ap := Analyze(a.PermuteSym(perm))
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	pat := denseFill(ap)
	for s := 0; s < f.NSuper; s++ {
		j0 := f.Super[s]
		want := []int{}
		for i := j0; i < ap.N; i++ {
			if pat[i][j0] {
				want = append(want, i)
			}
		}
		got := f.Rows[s]
		if len(got) != len(want) {
			t.Fatalf("supernode %d rows: got %d, want %d", s, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("supernode %d row %d: got %d, want %d", s, k, got[k], want[k])
			}
		}
	}
}

func TestSupernodePatternIdenticalAcrossColumns(t *testing.T) {
	a := mesh.Grid2D(7, 7)
	perm := order.NestedDissectionGeom(a, mesh.Grid2DGeometry(7, 7))
	f, _, ap := Analyze(a.PermuteSym(perm))
	pat := denseFill(ap)
	for s := 0; s < f.NSuper; s++ {
		j0, j1 := f.Super[s], f.Super[s+1]
		// each column j in the supernode must have pattern Rows[s] ∩ [j, n)
		for j := j0; j < j1; j++ {
			k := 0
			for _, r := range f.Rows[s] {
				if r < j {
					continue
				}
				if !pat[r][j] {
					t.Fatalf("supernode %d: L(%d,%d) expected nonzero", s, r, j)
				}
				k++
			}
			if k != f.ColCount[j] {
				t.Fatalf("supernode %d col %d count mismatch", s, j)
			}
		}
	}
}

func TestSupernodesMaximal(t *testing.T) {
	f, _ := analyzeGrid(t, 6, 6)
	// maximality: merging supernode s with s+1 must violate the criterion
	for s := 0; s+1 < f.NSuper; s++ {
		j := f.Super[s+1] // first col of next supernode
		prev := j - 1
		if f.Tree.Parent[prev] == j && f.ColCount[j] == f.ColCount[prev]-1 {
			t.Fatalf("supernodes %d,%d should have been merged at col %d", s, s+1, j)
		}
	}
}

func TestRootSupernodeIsTopSeparator(t *testing.T) {
	// For an odd 2-D grid under geometric ND the top separator is a full
	// grid line; the root supernode must be exactly that dense triangle.
	f, _ := analyzeGrid(t, 9, 9)
	roots := f.SRoots()
	if len(roots) != 1 {
		t.Fatalf("roots = %v", roots)
	}
	r := roots[0]
	// The separator is a 9-vertex grid line; structural merging may absorb
	// a few extra columns whose pattern coincides, but never fewer.
	if f.Width(r) < 9 {
		t.Fatalf("root supernode width = %d, want >= 9 (grid line)", f.Width(r))
	}
	if f.Height(r) != f.Width(r) {
		t.Fatal("root supernode must be triangular (no below rows)")
	}
}

func TestFlopCountsPositiveAndConsistent(t *testing.T) {
	f, _ := analyzeGrid(t, 8, 8)
	if f.FactorFlops <= 0 || f.SolveFlopsPerRHS <= 0 {
		t.Fatal("flop counts must be positive")
	}
	// solve flops = sum over columns 4l+2 = 4(nnzL-N) + 2N
	want := 4*(f.NnzL-int64(f.N)) + 2*int64(f.N)
	if f.SolveFlopsPerRHS != want {
		t.Fatalf("solve flops %d, want %d", f.SolveFlopsPerRHS, want)
	}
}

func TestAnalyzePostordersTree(t *testing.T) {
	// RCM ordering is generally not a postorder of its etree; Analyze must
	// fix that and report the applied permutation.
	a := mesh.Grid2D(6, 5)
	perm := order.RCM(a)
	f, post, ap := Analyze(a.PermuteSym(perm))
	if !sparse.IsPerm(post) {
		t.Fatal("post not a permutation")
	}
	if !f.Tree.IsPostordered() {
		t.Fatal("tree not postordered after Analyze")
	}
	if ap.N != a.N {
		t.Fatal("permuted matrix size changed")
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNnzLMatchesDenseFill(t *testing.T) {
	f := func(nx8, ny8 uint8) bool {
		nx := int(nx8%6) + 2
		ny := int(ny8%6) + 2
		a := mesh.Grid2D(nx, ny)
		perm := order.NestedDissectionGeom(a, mesh.Grid2DGeometry(nx, ny))
		fct, _, ap := Analyze(a.PermuteSym(perm))
		if fct.Validate() != nil {
			return false
		}
		pat := denseFill(ap)
		var nnz int64
		for j := 0; j < ap.N; j++ {
			for i := j; i < ap.N; i++ {
				if pat[i][j] {
					nnz++
				}
			}
		}
		return nnz == fct.NnzL
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeAllocatesPerSupernode enforces that the column counts form no
// per-column pattern: what Analyze allocates is one row list per supernode
// plus a constant, which for a grid is fewer allocations than columns.
func TestAnalyzeAllocatesPerSupernode(t *testing.T) {
	a := mesh.Grid2D(63, 63)
	ap := a.PermuteSym(order.NestedDissectionGeom(a, mesh.Grid2DGeometry(63, 63)))
	f, _, _ := Analyze(ap)
	allocs := testing.AllocsPerRun(3, func() { Analyze(ap) })
	if allocs > float64(f.NSuper+64) || allocs >= float64(f.N) {
		t.Fatalf("Analyze made %.0f allocations for N = %d, NSuper = %d; want ≤ NSuper + 64 and < N",
			allocs, f.N, f.NSuper)
	}
}

// TestValidateChecksRowsPastParentColumns pins that Validate holds every
// below row to its parent's rows — the invariant Rel relies on — not only
// those left of the parent's last column. Supernode 0's row 3 lies past
// its parent's only column and is missing from the parent; everything
// else about the factor is consistent.
func TestValidateChecksRowsPastParentColumns(t *testing.T) {
	f := &Factor{
		N:         4,
		NnzL:      3 + 2 + 3,
		NSuper:    3,
		Super:     []int{0, 1, 2, 4},
		Rows:      [][]int{{0, 1, 3}, {1, 2}, {2, 3}},
		SParent:   []int{1, 2, -1},
		SChildren: [][]int{nil, {0}, {1}},
	}
	err := f.Validate()
	if err == nil || !strings.Contains(err.Error(), "row 3 of supernode 0 missing from its parent 1") {
		t.Fatalf("Validate = %v, want row 3 of supernode 0 missing from its parent 1", err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "row 3 of supernode 0") {
			t.Fatalf("Rel panicked with %v, want the missing row named", r)
		}
	}()
	f.Rel(1)
}

// TestRelFirstCallConcurrent calls Rel first from several goroutines at
// once (the sweeps' and the factorization's workers do) and requires every
// caller to see the referee's indices; it is part of the -race suite.
func TestRelFirstCallConcurrent(t *testing.T) {
	f, _ := analyzeGrid(t, 15, 15)
	g := Amalgamate(f, 0.15, 32)
	start := make(chan struct{})
	var wg sync.WaitGroup
	bad := make(chan int, 8*2*f.NSuper)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, h := range []*Factor{f, g} {
				for c := 0; c < h.NSuper; c++ {
					if !slices.Equal(h.Rel(c), refRel(h, c)) {
						bad <- c
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(bad)
	for c := range bad {
		t.Fatalf("Rel(%d) differs from the referee under a concurrent first call", c)
	}
}

// TestPaperFigure1 reproduces the structural claims of the paper's
// Figure 1 on a nested-dissection-ordered grid: the elimination tree is
// balanced, separators become supernodes (trapezoidal dense blocks), and
// subtree work splits roughly in half at the top levels — the property
// subtree-to-subcube mapping relies on.
func TestPaperFigure1(t *testing.T) {
	f, _ := analyzeGrid(t, 9, 9)
	roots := f.SRoots()
	if len(roots) != 1 {
		t.Fatalf("expected one root, got %v", roots)
	}
	r := roots[0]
	kids := f.SChildren[r]
	if len(kids) < 2 {
		t.Fatalf("root supernode should have ≥2 children, got %d", len(kids))
	}
	// subtree column counts under the root's children should be balanced
	colsUnder := make(map[int]int)
	var count func(s int) int
	count = func(s int) int {
		c := f.Width(s)
		for _, k := range f.SChildren[s] {
			c += count(k)
		}
		return c
	}
	total := 0
	for _, k := range kids {
		colsUnder[k] = count(k)
		total += colsUnder[k]
	}
	// No single child subtree may dominate: the work below the root must
	// be splittable into two roughly equal processor halves.
	for _, k := range kids {
		frac := float64(colsUnder[k]) / float64(total)
		if frac > 0.75 {
			t.Fatalf("unbalanced top split: child %d holds %.2f of columns", k, frac)
		}
	}
}
