package sparse_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
)

// refCompile is Triplet.Compile as it stood before the counting core:
// bucket by column in input order, then sort.Slice each column and sum
// runs of equal rows. Kept as the referee the counting core is held to.
func refCompile(t *sparse.Triplet) *sparse.SymCSC {
	n := t.N
	colPtr := make([]int, n+1)
	for _, j := range t.J {
		colPtr[j+1]++
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := make([]int, len(t.I))
	val := make([]float64, len(t.I))
	next := append([]int(nil), colPtr[:n]...)
	for k, j := range t.J {
		rowIdx[next[j]], val[next[j]] = t.I[k], t.V[k]
		next[j]++
	}
	return refSortAndMerge(&sparse.SymCSC{N: n, ColPtr: colPtr, RowIdx: rowIdx, Val: val})
}

// refSortAndMerge sorts row indices within each column and sums duplicates.
func refSortAndMerge(a *sparse.SymCSC) *sparse.SymCSC {
	type entry struct {
		row int
		val float64
	}
	out := &sparse.SymCSC{N: a.N, ColPtr: make([]int, a.N+1)}
	var buf []entry
	for j := 0; j < a.N; j++ {
		buf = buf[:0]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			buf = append(buf, entry{a.RowIdx[p], a.Val[p]})
		}
		sort.Slice(buf, func(x, y int) bool { return buf[x].row < buf[y].row })
		for k := 0; k < len(buf); {
			r := buf[k].row
			v := 0.0
			for k < len(buf) && buf[k].row == r {
				v += buf[k].val
				k++
			}
			out.RowIdx = append(out.RowIdx, r)
			out.Val = append(out.Val, v)
		}
		out.ColPtr[j+1] = len(out.RowIdx)
	}
	return out
}

// refPermuteSym is PermuteSym as it stood before the counting core: every
// entry through Triplet.Add, then refCompile.
func refPermuteSym(a *sparse.SymCSC, perm []int) *sparse.SymCSC {
	inv := sparse.InvertPerm(perm)
	t := sparse.NewTriplet(a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			t.Add(inv[a.RowIdx[p]], inv[j], a.Val[p])
		}
	}
	return refCompile(t)
}

// sameBits reports whether two matrices agree in structure and, bit for
// bit, in value.
func sameBits(t *testing.T, what string, got, want *sparse.SymCSC) {
	t.Helper()
	if got.N != want.N || len(got.ColPtr) != len(want.ColPtr) || len(got.RowIdx) != len(want.RowIdx) ||
		len(got.Val) != len(want.Val) {
		t.Fatalf("%s: shape differs: n %d/%d, nnz %d/%d", what, got.N, want.N, len(got.RowIdx), len(want.RowIdx))
	}
	for j := range want.ColPtr {
		if got.ColPtr[j] != want.ColPtr[j] {
			t.Fatalf("%s: ColPtr[%d] = %d, want %d", what, j, got.ColPtr[j], want.ColPtr[j])
		}
	}
	for p := range want.RowIdx {
		if got.RowIdx[p] != want.RowIdx[p] || math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
			t.Fatalf("%s: entry %d = (%d, %x), want (%d, %x)", what, p,
				got.RowIdx[p], math.Float64bits(got.Val[p]), want.RowIdx[p], math.Float64bits(want.Val[p]))
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// randomTriplet draws entries with duplicates, upper-triangle mirrors and
// signed zeros. No column receives more than 12 raw entries: up to that
// length sort.Slice is a stable insertion sort, so the referee sums
// duplicates in input order too and the bits must agree.
func randomTriplet(rng *rand.Rand, n int) *sparse.Triplet {
	t := sparse.NewTriplet(n)
	perCol := make([]int, n)
	for k := rng.Intn(6 * n); k > 0; k-- {
		i, j := rng.Intn(n), rng.Intn(n)
		lo := min(i, j)
		if perCol[lo] == 12 {
			continue
		}
		perCol[lo]++
		var v float64
		switch rng.Intn(4) {
		case 0:
			v = math.Copysign(0, -1)
		case 1:
			v = 0
		default:
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		}
		t.Add(i, j, v)
		if perCol[lo] < 12 && rng.Intn(5) == 0 { // an immediate duplicate
			perCol[lo]++
			t.Add(j, i, -v/3)
		}
	}
	return t
}

func TestCompileMatchesReferee(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 300; trial++ {
		tr := randomTriplet(rng, 1+rng.Intn(40))
		sameBits(t, "random triplet", tr.Compile(), refCompile(tr))
	}
	// A lone -0.0 becomes +0.0, as the sort-based build made it.
	tr := sparse.NewTriplet(2)
	tr.Add(1, 0, math.Copysign(0, -1))
	if v := tr.Compile().Val[0]; math.Signbit(v) {
		t.Fatal("a lone -0.0 entry kept its sign")
	}
	// Long columns without duplicates: any sort gives one answer.
	for _, p := range mesh.Suite() {
		tr := sparse.NewTriplet(p.A.N)
		for _, k := range rng.Perm(p.A.NNZ()) {
			j := sort.SearchInts(p.A.ColPtr, k+1) - 1
			tr.Add(p.A.RowIdx[k], j, p.A.Val[k])
		}
		sameBits(t, p.Name+" shuffled", tr.Compile(), refCompile(tr))
		sameBits(t, p.Name+" shuffled", tr.Compile(), p.A)
	}
}

func TestPermuteSymMatchesReferee(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, p := range mesh.Suite() {
		for _, perm := range [][]int{rng.Perm(p.A.N), sparse.IdentityPerm(p.A.N)} {
			sameBits(t, p.Name, p.A.PermuteSym(perm), refPermuteSym(p.A, perm))
		}
	}
	for trial := 0; trial < 200; trial++ {
		a := refCompile(randomTriplet(rng, 1+rng.Intn(40)))
		for p := range a.Val {
			if rng.Intn(8) == 0 {
				a.Val[p] = math.Copysign(0, -1)
			}
		}
		perm := rng.Perm(a.N)
		sameBits(t, "random", a.PermuteSym(perm), refPermuteSym(a, perm))
	}
}

// refMulBlock is SymCSC.MulBlock as it stood before row j's sums moved
// into locals: every term straight into Y, column by column, entry by
// entry.
func refMulBlock(a *sparse.SymCSC, x, y *sparse.Block) {
	m := x.M
	for i := range y.Data {
		y.Data[i] = 0
	}
	for j := 0; j < a.N; j++ {
		xj := x.Row(j)
		yj := y.Row(j)
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			v := a.Val[p]
			yi := y.Row(i)
			for c := 0; c < m; c++ {
				yi[c] += v * xj[c]
			}
			if i != j {
				xi := x.Row(i)
				for c := 0; c < m; c++ {
					yj[c] += v * xi[c]
				}
			}
		}
	}
}

// TestMulBlockMatchesReferee holds MulBlock to its referee bit for bit at
// every width 1..9 and 30, on random matrices with signed zeros, empty
// columns and a missing diagonal here and there, against blocks holding
// NaN, ±Inf and −0 (any NaN matches any other). Y starts dirty, so a
// width that forgot to clear it would show.
func TestMulBlockMatchesReferee(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		a := randomTriplet(rng, n).Compile()
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 30} {
			x := sparse.NewBlock(n, m)
			for i := range x.Data {
				if rng.Intn(12) == 0 {
					x.Data[i] = special[rng.Intn(len(special))]
				} else {
					x.Data[i] = rng.NormFloat64()
				}
			}
			got, want := sparse.NewBlock(n, m), sparse.NewBlock(n, m)
			for i := range got.Data {
				got.Data[i] = math.NaN()
			}
			a.MulBlock(x, got)
			refMulBlock(a, x, want)
			for i, w := range want.Data {
				g := got.Data[i]
				if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("trial %d n=%d m=%d: entry %d is %v (%#x), the referee's %v (%#x)",
						trial, n, m, i, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}
