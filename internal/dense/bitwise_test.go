package dense

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sptrsv/internal/rowops"
)

// referencePartialCholesky is PartialCholesky as it was before its
// updates moved onto the row primitive: scalar Go loops, the rank-4
// trailing update fused by hand. It is the referee both bodies of the
// primitive are held to, bit for bit.
func referencePartialCholesky(a []float64, lda, n, t int) error {
	pivot := func(j, hi int) error {
		cj := a[j*lda:]
		d := cj[j]
		if !(d > 0) || math.IsInf(d, 1) {
			return &PivotError{Column: j, Pivot: d}
		}
		d = math.Sqrt(d)
		cj[j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			cj[i] *= inv
		}
		for k := j + 1; k < hi; k++ {
			ljk := cj[k]
			if ljk == 0 {
				continue
			}
			ck := a[k*lda:]
			for i := k; i < n; i++ {
				ck[i] -= cj[i] * ljk
			}
		}
		return nil
	}
	j := 0
	for ; j+4 <= t; j += 4 {
		for jj := j; jj < j+4; jj++ {
			if err := pivot(jj, j+4); err != nil {
				return err
			}
		}
		c0, c1, c2, c3 := a[j*lda:], a[(j+1)*lda:], a[(j+2)*lda:], a[(j+3)*lda:]
		for k := j + 4; k < n; k++ {
			l0, l1, l2, l3 := c0[k], c1[k], c2[k], c3[k]
			if l0 == 0 && l1 == 0 && l2 == 0 && l3 == 0 {
				continue
			}
			ck := a[k*lda:]
			for i := k; i < n; i++ {
				v := ck[i]
				v -= c0[i] * l0
				v -= c1[i] * l1
				v -= c2[i] * l2
				v -= c3[i] * l3
				ck[i] = v
			}
		}
	}
	for ; j < t; j++ {
		if err := pivot(j, n); err != nil {
			return err
		}
	}
	return nil
}

// plantSpecials overwrites part of the lower triangle of an n×n matrix in
// a (leading dimension lda): whole rows of the factored columns become
// ±0, so a rank-4 group's four multipliers can all be zero and its update
// call is skipped; single multipliers become ±0; trailing entries become
// −0; and, when poison is set, a few entries off the diagonal become NaN
// or ±Inf.
func plantSpecials(rng *rand.Rand, a []float64, lda, n, t int, poison bool) {
	negZero := math.Copysign(0, -1)
	zeros := []float64{0, negZero}
	for range 2 {
		if k := rng.Intn(n); k > 0 {
			for j := 0; j < min(k, t); j++ {
				a[j*lda+k] = zeros[rng.Intn(2)]
			}
		}
	}
	for range n / 3 {
		j, i := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		i, j = max(i, j), min(i, j)
		if j < t {
			a[j*lda+i] = zeros[rng.Intn(2)]
		} else {
			a[j*lda+i] = negZero
		}
	}
	if poison {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if n > 1 && rng.Intn(2) == 0 {
				j := rng.Intn(n - 1)
				i := j + 1 + rng.Intn(n-j-1)
				a[j*lda+i] = v
			}
		}
	}
}

// sameBitsOrNaN reports the first index where got and want differ in
// their bits, any NaN standing for any other (which payload survives an
// operation on two NaNs is the operand order's, not the arithmetic's), or
// -1.
func sameBitsOrNaN(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

// samePivotError reports whether two PartialCholesky results agree: both
// nil, or both a *PivotError at the same column with the same pivot.
func samePivotError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	var g, w *PivotError
	if !errors.As(got, &g) || !errors.As(want, &w) {
		return false
	}
	return g.Column == w.Column && sameBitsOrNaN([]float64{g.Pivot}, []float64{w.Pivot}) < 0
}

// TestPartialCholeskyBitwiseReference is the referee of the factorization
// over the row and Schur primitives. The first 160 trials take random
// fronts of order 1..70 with padding (lda > n), every t mod 4, zero and −0
// multipliers (whole zero rows included, so the rank-4 skip fires), −0
// trailing entries, and in half the trials NaN/±Inf off the pivot. The
// next trials take fronts of order up to 200, spanning several panels of
// rowops.Panel pivots and many 8-row tiles with every ragged tail, at
// every t mod 4 and t mod 32; they add zero multiplier groups to single
// columns (so one column of a quad skips a group its neighbours take), and
// in every other trial a pivot planted to fail in the middle of a panel.
// PartialCholesky over the selected primitives and over the portable ones
// must leave every entry of the buffer — padding and upper triangle
// included, also after a failed pivot — bit for bit where the scalar
// reference loops leave it, and stop at the same pivot.
func TestPartialCholeskyBitwiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := range 160 {
		n := 1 + rng.Intn(70)
		lda := n + 1 + rng.Intn(5)
		for residue := range 4 {
			tc := min(n, 4*rng.Intn(n/4+1)+residue)
			if trial%8 == 0 {
				tc = n
			}
			a := sentinelSPD(rng, n, lda)
			plantSpecials(rng, a, lda, n, tc, trial%2 == 1)
			checkPartialCholesky(t, fmt.Sprintf("trial %d n=%d lda=%d t=%d", trial, n, lda, tc), a, lda, n, tc)
		}
	}
	for trial := range rowops.Panel + 8 {
		n := 33 + rng.Intn(168)
		lda := n + rng.Intn(4)
		// The first trials take t = trial mod 32 (so t mod 4 too) plus a
		// random number of whole panels; the last eight factor all of n.
		tc := n
		if r := trial; r < rowops.Panel {
			tc = rowops.Panel*rng.Intn((n-r)/rowops.Panel+1) + r
		}
		a := sentinelSPD(rng, n, lda)
		plantSpecials(rng, a, lda, n, tc, trial%4 == 1)
		plantZeroGroups(rng, a, lda, n, tc)
		if trial%2 == 0 && tc > 5 {
			// A pivot in the middle of a panel: the diagonal entry is made
			// so negative that no update before it can rescue it.
			f := min(tc-1, rowops.Panel*rng.Intn((tc-1)/rowops.Panel+1)+5+rng.Intn(rowops.Panel-10))
			a[f*lda+f] = -1e30
		}
		checkPartialCholesky(t, fmt.Sprintf("panel trial %d n=%d lda=%d t=%d", trial, n, lda, tc), a, lda, n, tc)
	}
}

// sentinelSPD returns a random SPD front of order n in a buffer with
// leading dimension lda whose upper triangle and padding carry sentinels.
func sentinelSPD(rng *rand.Rand, n, lda int) []float64 {
	a, _ := randSPD(rng, n, lda)
	for j := range n {
		for i := 0; i < j; i++ {
			a[j*lda+i] = float64(1000 + i)
		}
		for i := n; i < lda; i++ {
			a[j*lda+i] = -float64(1000 + i)
		}
	}
	return a
}

// plantZeroGroups zeroes a few rows k of the lower triangle over the
// first 4·(g+1) columns for a random g: the factored multipliers of
// column k stay zero there, so column k alone skips groups 0..g while the
// other columns of its quad take them.
func plantZeroGroups(rng *rand.Rand, a []float64, lda, n, t int) {
	negZero := math.Copysign(0, -1)
	for range 1 + n/16 {
		k := rng.Intn(n)
		w := min(k, t, 4*(1+rng.Intn(t/4+1)))
		for j := range w {
			a[j*lda+k] = []float64{0, negZero}[rng.Intn(2)]
		}
	}
}

// checkPartialCholesky runs PartialCholesky on a copy of a over the
// portable primitives and the selected ones, and fails unless both stop at
// the pivot the reference loops stop at and leave the whole buffer with
// the reference's bits.
func checkPartialCholesky(t *testing.T, what string, a []float64, lda, n, tc int) {
	t.Helper()
	want := append([]float64(nil), a...)
	wantErr := referencePartialCholesky(want, lda, n, tc)
	for _, run := range []struct {
		what  string
		rows  rowops.Kernels[float64]
		schur rowops.SchurKernel
	}{{"portable", rowops.Portable[float64](), rowops.PortableSchur()}, {rowops.VectorISA(), rowops.F64, rowops.Schur}} {
		got := append([]float64(nil), a...)
		err := partialCholesky(got, lda, n, tc, run.rows, run.schur)
		what := fmt.Sprintf("%s, %s body", what, run.what)
		if !samePivotError(err, wantErr) {
			t.Fatalf("%s: error %v, the reference loops give %v", what, err, wantErr)
		}
		if i := sameBitsOrNaN(got, want); i >= 0 {
			t.Fatalf("%s: entry (%d,%d) is %v (%#x), the reference loops give %v (%#x)",
				what, i%lda, i/lda, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestPartialCholeskyRefusesUnusablePivots pins the pivot rule: anything
// not positive and finite stops the factorization with a *PivotError
// naming the column and the value, matching ErrNotPD.
func TestPartialCholeskyRefusesUnusablePivots(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.NaN(), 0, math.Copysign(0, -1), -1, math.Inf(-1)} {
		for _, col := range []int{0, 2, 5} {
			rng := rand.New(rand.NewSource(int64(col)))
			const n, lda = 7, 8
			a, _ := randSPD(rng, n, lda)
			for i := col; i < n; i++ { // column col decoupled, so its pivot is exactly v
				a[col*lda+i] = 0
			}
			for j := 0; j < col; j++ {
				a[j*lda+col] = 0
			}
			a[col*lda+col] = v
			err := PartialCholesky(a, lda, n, n)
			var pe *PivotError
			if !errors.Is(err, ErrNotPD) || !errors.As(err, &pe) || pe.Column != col || sameBitsOrNaN([]float64{pe.Pivot}, []float64{v}) >= 0 {
				t.Fatalf("pivot %v at column %d: got %v, want a *PivotError naming both", v, col, err)
			}
		}
	}
}
