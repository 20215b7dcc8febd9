package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperMatrix builds a small SPD matrix similar in spirit to the 16-node
// example of the paper's Figure 1: a 4×4 five-point grid with diagonal
// dominance.
func paperMatrix() *SymCSC {
	t := NewTriplet(16)
	idx := func(r, c int) int { return r*4 + c }
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			v := idx(r, c)
			t.Add(v, v, 4.0)
			if r+1 < 4 {
				t.Add(idx(r+1, c), v, -1.0)
			}
			if c+1 < 4 {
				t.Add(idx(r, c+1), v, -1.0)
			}
		}
	}
	return t.Compile()
}

func TestTripletCompile(t *testing.T) {
	tr := NewTriplet(3)
	tr.Add(0, 0, 2)
	tr.Add(1, 1, 2)
	tr.Add(2, 2, 2)
	tr.Add(0, 1, -1) // upper triangle: should be mirrored to (1,0)
	tr.Add(1, 0, -1) // duplicate of the same entry: summed
	tr.Add(2, 1, -1)
	a := tr.Compile()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 5 {
		t.Fatalf("nnz = %d, want 5 (duplicates must merge)", a.NNZ())
	}
	d := a.ToDense()
	want := []float64{2, -2, 0, -2, 2, -1, 0, -1, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("dense[%d] = %g, want %g", i, d[i], want[i])
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	a := paperMatrix()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	b.RowIdx[0] = b.N + 5
	if err := b.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range row index")
	}
	c := a.Clone()
	// introduce an upper-triangle entry
	for j := 0; j < c.N; j++ {
		if c.ColPtr[j+1] > c.ColPtr[j]+1 {
			c.RowIdx[c.ColPtr[j+1]-1] = j - 1
			break
		}
	}
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted an upper-triangle entry")
	}
}

// TestMulBlockAgainstDense checks a one-column MulBlock against the dense
// product of the full symmetric matrix.
func TestMulBlockAgainstDense(t *testing.T) {
	a := paperMatrix()
	n := a.N
	d := a.ToDense()
	rng := rand.New(rand.NewSource(1))
	x := NewBlock(n, 1)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := NewBlock(n, 1)
	a.MulBlock(x, y)
	for i := 0; i < n; i++ {
		want := 0.0
		for j := 0; j < n; j++ {
			want += d[i*n+j] * x.Data[j]
		}
		if math.Abs(y.Data[i]-want) > 1e-12 {
			t.Fatalf("MulBlock[%d] = %g, want %g", i, y.Data[i], want)
		}
	}
}

// TestMulBlockColumnsMatchOneColumnBlocks checks that every column of a
// three-column MulBlock is bit for bit the one-column MulBlock of that
// column.
func TestMulBlockColumnsMatchOneColumnBlocks(t *testing.T) {
	a := paperMatrix()
	n, m := a.N, 3
	rng := rand.New(rand.NewSource(2))
	x := NewBlock(n, m)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := NewBlock(n, m)
	a.MulBlock(x, y)
	for c := 0; c < m; c++ {
		xc := &Block{N: n, M: 1, Data: x.Col(c)}
		yc := NewBlock(n, 1)
		a.MulBlock(xc, yc)
		got := y.Col(c)
		for i := 0; i < n; i++ {
			if math.Float64bits(got[i]) != math.Float64bits(yc.Data[i]) {
				t.Fatalf("col %d row %d: block %g vs one column %g", c, i, got[i], yc.Data[i])
			}
		}
	}
}

func TestPermuteSymRoundTrip(t *testing.T) {
	a := paperMatrix()
	n := a.N
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(n)
	b := a.PermuteSym(perm)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// B[k,l] must equal A[perm[k],perm[l]].
	da := a.ToDense()
	db := b.ToDense()
	for k := 0; k < n; k++ {
		for l := 0; l < n; l++ {
			if db[k*n+l] != da[perm[k]*n+perm[l]] {
				t.Fatalf("permuted entry (%d,%d) mismatch", k, l)
			}
		}
	}
	// Applying the inverse permutation must restore A.
	c := b.PermuteSym(InvertPerm(perm))
	dc := c.ToDense()
	for i := range da {
		if dc[i] != da[i] {
			t.Fatal("inverse permutation did not restore the matrix")
		}
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	a := paperMatrix()
	adj := a.Adjacency()
	for v, nbrs := range adj {
		for _, u := range nbrs {
			if u == v {
				t.Fatalf("self loop at %d", v)
			}
			found := false
			for _, w := range adj[u] {
				if w == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) not symmetric", v, u)
			}
		}
	}
	// interior vertex of a 4x4 grid has degree 4
	if len(adj[5]) != 4 {
		t.Fatalf("interior degree = %d, want 4", len(adj[5]))
	}
}

func TestNNZFull(t *testing.T) {
	a := paperMatrix()
	// 16 diagonal + 24 grid edges, full count = 16 + 2*24.
	if a.NNZ() != 16+24 {
		t.Fatalf("lower nnz = %d, want 40", a.NNZ())
	}
	if a.NNZFull() != 16+48 {
		t.Fatalf("full nnz = %d, want 64", a.NNZFull())
	}
}

func TestPermPropertyQuick(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%32) + 1
		rng := rand.New(rand.NewSource(seed))
		p := rng.Perm(n)
		if !IsPerm(p) {
			return false
		}
		inv := InvertPerm(p)
		for k := range p {
			if inv[p[k]] != k || p[inv[k]] != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsPermRejects(t *testing.T) {
	if IsPerm([]int{0, 0, 2}) {
		t.Fatal("accepted duplicate")
	}
	if IsPerm([]int{0, 3}) {
		t.Fatal("accepted out of range")
	}
	if !IsPerm(nil) {
		t.Fatal("rejected empty permutation")
	}
}

func TestBlockOps(t *testing.T) {
	b := NewBlock(4, 2)
	for i := range b.Data {
		b.Data[i] = float64(i)
	}
	if got := b.Row(2); got[0] != 4 || got[1] != 5 {
		t.Fatalf("Row(2) = %v", got)
	}
	if got := b.Col(1); got[3] != 7 {
		t.Fatalf("Col(1) = %v", got)
	}
	c := b.Clone()
	c.AddScaled(-1, b)
	if c.NormInf() != 0 {
		t.Fatal("AddScaled(-1) should zero the clone")
	}
	if b.MaxAbsDiff(c) != 7 {
		t.Fatalf("MaxAbsDiff = %g, want 7", b.MaxAbsDiff(c))
	}
}

func TestBlockPermuteRows(t *testing.T) {
	b := NewBlock(3, 2)
	for i := range b.Data {
		b.Data[i] = float64(i)
	}
	p := []int{2, 0, 1}
	out := b.PermuteRows(p)
	for k := 0; k < 3; k++ {
		for c := 0; c < 2; c++ {
			if out.Row(k)[c] != b.Row(p[k])[c] {
				t.Fatalf("permuted row %d mismatch", k)
			}
		}
	}
}

// Property: PermuteSym preserves the multiset of values and the symmetric
// product x'Ax (with permuted x).
func TestPermutePreservesQuadraticForm(t *testing.T) {
	f := func(seed int64) bool {
		a := paperMatrix()
		n := a.N
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(n)
		b := a.PermuteSym(perm)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// y = A x ; quadratic form xᵀAx
		y := NewBlock(n, 1)
		a.MulBlock(&Block{N: n, M: 1, Data: x}, y)
		qa := 0.0
		for i := range x {
			qa += x[i] * y.Data[i]
		}
		// z[k] = x[perm[k]]
		z := make([]float64, n)
		for k := 0; k < n; k++ {
			z[k] = x[perm[k]]
		}
		w := NewBlock(n, 1)
		b.MulBlock(&Block{N: n, M: 1, Data: z}, w)
		qb := 0.0
		for i := range z {
			qb += z[i] * w.Data[i]
		}
		return math.Abs(qa-qb) <= 1e-9*(1+math.Abs(qa))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
