package symbolic

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sptrsv/internal/etree"
	"sptrsv/internal/mesh"
	"sptrsv/internal/order"
	"sptrsv/internal/sparse"
)

// refAnalyze is Analyze as it stood before the skeleton column counts: a
// second etree after the postorder, and a first pass that builds and sorts
// every column pattern of L only to read its length. Kept as the referee
// the near-linear Analyze is held to, field for field.
func refAnalyze(a *sparse.SymCSC) (*Factor, []int, *sparse.SymCSC) {
	t0 := etree.Compute(a)
	post := t0.Postorder()
	identity := true
	for k, v := range post {
		if k != v {
			identity = false
			break
		}
	}
	if !identity {
		a = a.PermuteSym(post)
	}
	tree := etree.Compute(a)
	if !tree.IsPostordered() {
		panic("symbolic: elimination tree not postordered after relabeling")
	}
	n := a.N
	children := tree.Children()
	patterns := make([][]int, n)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	colCount := make([]int, n)
	var nnzL int64
	for j := 0; j < n; j++ {
		var pat []int
		mark[j] = j
		pat = append(pat, j)
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if i > j && mark[i] != j {
				mark[i] = j
				pat = append(pat, i)
			}
		}
		for _, c := range children[j] {
			for _, i := range patterns[c] {
				if i > j && mark[i] != j {
					mark[i] = j
					pat = append(pat, i)
				}
			}
			patterns[c] = nil
		}
		sort.Ints(pat)
		patterns[j] = pat
		colCount[j] = len(pat)
		nnzL += int64(len(pat))
	}
	super := []int{0}
	for j := 1; j < n; j++ {
		if tree.Parent[j-1] == j && colCount[j] == colCount[j-1]-1 {
			continue
		}
		super = append(super, j)
	}
	super = append(super, n)
	nsuper := len(super) - 1
	colToSuper := make([]int, n)
	for s := 0; s < nsuper; s++ {
		for j := super[s]; j < super[s+1]; j++ {
			colToSuper[j] = s
		}
	}
	rows := make([][]int, nsuper)
	sparent := make([]int, nsuper)
	schildren := make([][]int, nsuper)
	for s := 0; s < nsuper; s++ {
		lastCol := super[s+1] - 1
		if p := tree.Parent[lastCol]; p == -1 {
			sparent[s] = -1
		} else {
			sparent[s] = colToSuper[p]
		}
		if sparent[s] >= 0 {
			schildren[sparent[s]] = append(schildren[sparent[s]], s)
		}
	}
	for i := range mark {
		mark[i] = -1
	}
	for s := 0; s < nsuper; s++ {
		j0, j1 := super[s], super[s+1]
		var pat []int
		for j := j0; j < j1; j++ {
			if mark[j] != s {
				mark[j] = s
				pat = append(pat, j)
			}
			for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
				i := a.RowIdx[p]
				if i >= j0 && mark[i] != s {
					mark[i] = s
					pat = append(pat, i)
				}
			}
		}
		for _, c := range schildren[s] {
			for _, i := range rows[c] {
				if i >= j0 && mark[i] != s {
					mark[i] = s
					pat = append(pat, i)
				}
			}
		}
		sort.Ints(pat)
		rows[s] = pat
		if len(pat) != colCount[j0] {
			panic(fmt.Sprintf("symbolic: supernode %d pattern size %d != colcount %d", s, len(pat), colCount[j0]))
		}
	}
	var factorFlops, solveFlops int64
	for j := 0; j < n; j++ {
		l := int64(colCount[j] - 1)
		factorFlops += l*(l+1) + l + 1
		solveFlops += 2*(2*l) + 2
	}
	return &Factor{
		N: n, Tree: tree, ColCount: colCount, NnzL: nnzL,
		NSuper: nsuper, Super: super, ColToSuper: colToSuper, Rows: rows,
		SParent: sparent, SChildren: schildren,
		FactorFlops: factorFlops, SolveFlopsPerRHS: solveFlops,
	}, post, a
}

// refAmalgamate is Amalgamate as it stood before its maps became slices
// indexed by column, and before merges were decided from counts: one
// mergeSorted row list per merge attempt.
func refAmalgamate(f *Factor, maxFill float64, maxAbs int) *Factor {
	type group struct {
		startCol, endCol int
		rows             []int
		stored, exact    int
	}
	endsAt := make(map[int]*group, f.NSuper)
	for s := 0; s < f.NSuper; s++ {
		t := f.Width(s)
		sz := f.Height(s)*t - t*(t-1)/2
		grp := &group{startCol: f.Super[s], endCol: f.Super[s+1], rows: f.Rows[s], stored: sz, exact: sz}
		for grp.startCol > 0 {
			child, ok := endsAt[grp.startCol]
			if !ok {
				break
			}
			parentCol := f.Tree.Parent[grp.startCol-1]
			if parentCol < grp.startCol || parentCol >= grp.endCol {
				break
			}
			u := mergeSorted(child.rows, grp.rows)
			tNew := grp.endCol - child.startCol
			newStored := len(u)*tNew - tNew*(tNew-1)/2
			exact := child.exact + grp.exact
			padding := newStored - exact
			if padding > maxAbs && float64(padding) > maxFill*float64(exact) {
				break
			}
			delete(endsAt, grp.startCol)
			grp.startCol, grp.rows, grp.stored, grp.exact = child.startCol, u, newStored, exact
		}
		endsAt[grp.endCol] = grp
	}
	nsuper := len(endsAt)
	out := &Factor{
		N: f.N, Tree: f.Tree, ColCount: f.ColCount, NSuper: nsuper,
		Super: make([]int, 0, nsuper+1), ColToSuper: make([]int, f.N),
		Rows: make([][]int, 0, nsuper), SParent: make([]int, nsuper), SChildren: make([][]int, nsuper),
		FactorFlops: f.FactorFlops, SolveFlopsPerRHS: f.SolveFlopsPerRHS,
	}
	out.Super = append(out.Super, 0)
	var nnz int64
	starts := make(map[int]*group, nsuper)
	for _, g := range endsAt {
		starts[g.startCol] = g
	}
	for col := 0; col < f.N; {
		g := starts[col]
		s := len(out.Rows)
		out.Super = append(out.Super, g.endCol)
		out.Rows = append(out.Rows, g.rows)
		for j := g.startCol; j < g.endCol; j++ {
			out.ColToSuper[j] = s
		}
		nnz += int64(g.stored)
		col = g.endCol
	}
	out.NnzL = nnz
	for s := 0; s < nsuper; s++ {
		if p := f.Tree.Parent[out.Super[s+1]-1]; p == -1 {
			out.SParent[s] = -1
		} else {
			out.SParent[s] = out.ColToSuper[p]
			out.SChildren[out.SParent[s]] = append(out.SChildren[out.SParent[s]], s)
		}
	}
	return out
}

// mergeSorted returns the sorted union of two ascending int slices.
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// refRel is Rel derived the plain way: a map from each parent row to its
// position, looked up for every below row of the child.
func refRel(f *Factor, c int) []int32 {
	p := f.SParent[c]
	if p < 0 {
		return nil
	}
	at := make(map[int]int32, len(f.Rows[p]))
	for k, r := range f.Rows[p] {
		at[r] = int32(k)
	}
	var rel []int32
	for _, r := range f.Rows[c][f.Width(c):] {
		k, ok := at[r]
		if !ok {
			panic(fmt.Sprintf("refRel: row %d of supernode %d missing from its parent %d", r, c, p))
		}
		rel = append(rel, k)
	}
	return rel
}

// checkRel holds f's relative indices to refRel, supernode by supernode.
func checkRel(t *testing.T, name string, f *Factor) {
	t.Helper()
	for c := 0; c < f.NSuper; c++ {
		if got, want := f.Rel(c), refRel(f, c); !slices.Equal(got, want) {
			t.Fatalf("%s: Rel(%d) = %v, referee %v", name, c, got, want)
		}
	}
}

// checkAgainstReferee runs Analyze and refAnalyze side by side on a and
// requires every field, the postorder and the permuted matrix (values bit
// for bit) and the relative indices to agree, then the same of Amalgamate
// at three budgets.
func checkAgainstReferee(t *testing.T, name string, a *sparse.SymCSC) (*Factor, *sparse.SymCSC) {
	t.Helper()
	f, post, ap := Analyze(a)
	rf, rpost, rap := refAnalyze(a)
	if !reflect.DeepEqual(f, rf) {
		t.Fatalf("%s: Analyze differs from the referee", name)
	}
	if !reflect.DeepEqual(post, rpost) || !reflect.DeepEqual(ap, rap) {
		t.Fatalf("%s: postorder or permuted matrix differs from the referee", name)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkRel(t, name, f)
	for _, b := range []struct {
		fill float64
		abs  int
	}{{0.15, 32}, {0, 0}, {0.5, 1 << 20}} {
		checkAmalgamate(t, name, f, b.fill, b.abs)
	}
	return f, ap
}

// checkAmalgamate holds Amalgamate to refAmalgamate at one budget, field
// for field, the result to Validate and its relative indices to refRel.
func checkAmalgamate(t *testing.T, name string, f *Factor, fill float64, abs int) {
	t.Helper()
	g, rg := Amalgamate(f, fill, abs), refAmalgamate(f, fill, abs)
	if !reflect.DeepEqual(g, rg) {
		t.Fatalf("%s: Amalgamate(%g, %d) differs from the referee", name, fill, abs)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: Amalgamate(%g, %d): %v", name, fill, abs, err)
	}
	checkRel(t, fmt.Sprintf("%s: Amalgamate(%g, %d)", name, fill, abs), g)
}

func TestAnalyzeMatchesReferee(t *testing.T) {
	for _, p := range mesh.Suite() {
		checkAgainstReferee(t, p.Name, p.A.PermuteSym(order.NestedDissectionGeom(p.A, p.Geom)))
	}
	for seed := int64(1); seed <= 4; seed++ {
		a := mesh.RandomSPD(400, 2+int(seed), seed)
		checkAgainstReferee(t, "random-natural", a)
		checkAgainstReferee(t, "random-graph-nd", a.PermuteSym(order.NestedDissectionGraph(a)))
	}
	// RCM on a random pattern leaves a tree that is not postordered, so
	// the postorder moves the matrix (on a grid it happens not to).
	r := mesh.RandomSPD(200, 4, 3)
	rcm := r.PermuteSym(order.RCM(r))
	if etree.Compute(rcm).IsPostordered() {
		t.Fatal("the RCM case no longer exercises a non-postordered tree")
	}
	checkAgainstReferee(t, "rcm", rcm)
	disc := sparse.NewTriplet(40)
	for v := 0; v < 40; v++ {
		disc.Add(v, v, 4)
		if v%10 != 9 {
			disc.Add(v+1, v, -1)
		}
	}
	checkAgainstReferee(t, "disconnected", disc.Compile())
	rng := rand.New(rand.NewSource(5))
	checkAgainstReferee(t, "disconnected-shuffled", disc.Compile().PermuteSym(rng.Perm(40)))
	diag := sparse.NewTriplet(7)
	for v := 0; v < 7; v++ {
		diag.Add(v, v, 1)
	}
	checkAgainstReferee(t, "diagonal", diag.Compile())
	one := sparse.NewTriplet(1)
	one.Add(0, 0, 2)
	checkAgainstReferee(t, "n=1", one.Compile())
}

// FuzzAnalyze decodes a symmetric pattern of at most 40 vertices, a
// permutation and an amalgamation budget from the fuzz bytes — data[0]
// sizes the matrix, data[1] counts the edges that the next byte pairs
// name, the next bytes drive a Fisher-Yates shuffle, and the last three
// give a padding fraction in [0, 0.6] and an absolute padding in
// [0, 256] — and holds Analyze and Amalgamate to their referees (at the
// three fixed budgets and the decoded one, relative indices included),
// Validate, and the dense-fill count of L.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{9, 8, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 3, 1, 4, 1, 5})
	f.Add([]byte{40, 3, 0, 39, 7, 20, 20, 31})
	f.Add([]byte{1})
	f.Add([]byte{16, 12, 0, 4, 1, 5, 2, 6, 3, 7, 4, 8, 5, 9, 6, 10, 7, 11, 8, 12, 9, 13, 10, 14, 11, 15, 9, 9, 9})
	// a path of 9 under a shuffle, at padding 0.25 or 40 entries
	f.Add([]byte{9, 8, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 3, 1, 4, 1, 5, 9, 2, 6, 25, 0, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()%40
		tr := sparse.NewTriplet(n)
		for v := 0; v < n; v++ {
			tr.Add(v, v, 1)
		}
		for m := next(); m > 0; m-- {
			tr.Add(next()%n, next()%n, -1)
		}
		perm := sparse.IdentityPerm(n)
		for k := n - 1; k > 0; k-- {
			r := next() % (k + 1)
			perm[k], perm[r] = perm[r], perm[k]
		}
		fill := float64(next()%61) / 100
		abs := (next()<<8 | next()) % 257
		fct, ap := checkAgainstReferee(t, "fuzz", tr.Compile().PermuteSym(perm))
		checkAmalgamate(t, "fuzz", fct, fill, abs)
		var nnz int64
		for _, row := range denseFill(ap) {
			for _, in := range row {
				if in {
					nnz++
				}
			}
		}
		if nnz != fct.NnzL {
			t.Fatalf("NnzL %d, dense fill %d", fct.NnzL, nnz)
		}
	})
}
