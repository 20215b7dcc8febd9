package rowops

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The tests in this file are the primitives' referee: the selected bodies
// (the assembly where the CPU has it) against the portable ones against
// straight-line reference loops, bit for bit, on both value planes.

// referenceForward and referenceBackward are the primitives' definitions
// written as plainly as possible: one panel element, one row at a time.
func referenceForward[F float32 | float64](dst []float64, rows, m int, x []float64, xs int, l []F, ns, bw int) {
	for r := range rows {
		for j := range bw {
			for c := range m {
				dst[r*m+c] -= float64(l[j*ns+r]) * x[j*xs+c]
			}
		}
	}
}

func referenceBackward[F float32 | float64](acc []float64, bw, m int, v []float64, rows int, l []F, ns int) {
	for j := range bw {
		for r := range rows {
			if l[j*ns+r] == 0 {
				continue
			}
			for c := range m {
				acc[j*m+c] += float64(l[j*ns+r]) * v[r*m+c]
			}
		}
	}
}

// sameBits fails unless got and want agree bit for bit, any NaN standing
// for any other: which payload survives an operation on two NaNs is the
// operand order's, not the arithmetic's.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: entry %d is %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestRowPrimitivesPropertyRandomShapes drives both primitives on random
// shapes — 0, 1 and many rows, every m in 1..33 (so every YMM chunk count
// and every residue), every forward width 1..Block, backward widths up to
// 9, the solved rows m apart and farther apart, panel columns taller than
// the rows — over buffers with ±0 sprinkled in, and requires the selected
// and the portable bodies to leave every buffer exactly where the
// reference loops leave it, padding included.
func TestRowPrimitivesPropertyRandomShapes(t *testing.T) {
	rowPrimitivesPropertyRandomShapes(t, F64)
	rowPrimitivesPropertyRandomShapes(t, F32)
}

func rowPrimitivesPropertyRandomShapes[F float32 | float64](t *testing.T, selected Kernels[F]) {
	rng := rand.New(rand.NewSource(25))
	random := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			switch rng.Intn(10) {
			case 0:
				out[i] = 0
			case 1:
				out[i] = math.Copysign(0, -1)
			default:
				out[i] = rng.NormFloat64()
			}
		}
		return out
	}
	panelOf := func(n int) []F {
		out := make([]F, n)
		for i, v := range random(n) {
			out[i] = F(v)
		}
		return out
	}
	for m := 1; m <= 33; m++ {
		for _, rows := range []int{0, 1, 2, 1 + rng.Intn(40)} {
			ns := rows + rng.Intn(4)
			for _, xs := range []int{m, m + 1 + rng.Intn(6)} {
				for bw := 1; bw <= Block; bw++ {
					what := fmt.Sprintf("forward m=%d rows=%d ns=%d xs=%d bw=%d", m, rows, ns, xs, bw)
					dst, x, l := random(rows*m+3), random((bw-1)*xs+m+3), panelOf((bw-1)*ns+rows+3)
					want := slices.Clone(dst)
					referenceForward(want, rows, m, x, xs, l, ns, bw)
					for _, body := range []Kernels[F]{Portable[F](), selected} {
						got := slices.Clone(dst)
						body.Forward(got, rows, m, x, xs, l, ns, bw)
						sameBits(t, what, got, want)
					}
				}
			}
			for bw := 1; bw <= 9; bw++ {
				what := fmt.Sprintf("backward m=%d rows=%d ns=%d bw=%d", m, rows, ns, bw)
				acc, v, l := random(bw*m+3), random(rows*m+3), panelOf((bw-1)*ns+rows+3)
				want := slices.Clone(acc)
				referenceBackward(want, bw, m, v, rows, l, ns)
				for _, body := range []Kernels[F]{Portable[F](), selected} {
					got := slices.Clone(acc)
					body.Backward(got, bw, m, v, rows, l, ns)
					sameBits(t, what, got, want)
				}
			}
		}
	}
}

// TestRowPrimitivesSpecialValues calls the row primitives on a panel
// holding 0, −0 and NaN against rows holding ±Inf, the forward solved rows
// both m apart and farther apart, with NaN in the gap between them (which
// only a wrong stride would read). Both bodies on both planes must give
// the same bits, and the backward zero skip is pinned: a column of ±0
// against infinite rows accumulates nothing, a NaN element is not skipped.
func TestRowPrimitivesSpecialValues(t *testing.T) {
	rowPrimitivesSpecialValues(t, Portable[float64](), F64)
	rowPrimitivesSpecialValues(t, Portable[float32](), F32)
}

func rowPrimitivesSpecialValues[F float32 | float64](t *testing.T, portable, selected Kernels[F]) {
	const ns = 11
	negZero := math.Copysign(0, -1)
	for _, m := range []int{2, 3, 4, 7, 30} {
		for bw := 1; bw <= Block; bw++ {
			rng := rand.New(rand.NewSource(int64(100*m + bw)))
			panel := make([]F, ns*bw)
			for i := range panel {
				panel[i] = F(rng.NormFloat64())
			}
			// Below the block: column 0 is all ±0; the last column holds a NaN;
			// zeros of both signs are sprinkled over the rest.
			for li := bw; li < ns; li++ {
				panel[li] = F([]float64{0, negZero}[li%2])
			}
			panel[(bw-1)*ns+bw+2] = F(math.NaN())
			if bw > 2 {
				panel[1*ns+bw+1], panel[1*ns+bw+3] = 0, F(negZero)
			}
			v := make([]float64, ns*m)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			for li := bw; li < ns; li++ { // every row beyond the block holds both infinities
				v[li*m], v[li*m+m-1] = math.Inf(1), math.Inf(-1)
			}

			for _, xs := range []int{m, m + 3} {
				x := make([]float64, (bw-1)*xs+m)
				for i := range x {
					x[i] = math.NaN()
				}
				for j := range bw {
					copy(x[j*xs:][:m], v[j*m:])
				}
				what := fmt.Sprintf("forward m=%d bw=%d xs=%d", m, bw, xs)
				wantV, gotV := slices.Clone(v), slices.Clone(v)
				portable.Forward(wantV[bw*m:], ns-bw, m, x, xs, panel[bw:], ns, bw)
				selected.Forward(gotV[bw*m:], ns-bw, m, x, xs, panel[bw:], ns, bw)
				sameBits(t, what, gotV, wantV)
				if xs == m {
					refV := slices.Clone(v)
					referenceForward(refV[bw*m:], ns-bw, m, v, m, panel[bw:], ns, bw)
					sameBits(t, what+" (reference)", wantV, refV)
				}
			}

			what := fmt.Sprintf("backward m=%d bw=%d", m, bw)
			wantAcc, gotAcc := make([]float64, bw*m), make([]float64, bw*m)
			portable.Backward(wantAcc, bw, m, v[bw*m:], ns-bw, panel[bw:], ns)
			selected.Backward(gotAcc, bw, m, v[bw*m:], ns-bw, panel[bw:], ns)
			sameBits(t, what, gotAcc, wantAcc)
			last := wantAcc[(bw-1)*m:]
			if bw > 1 {
				for c, a := range wantAcc[:m] {
					if math.Float64bits(a) != 0 {
						t.Fatalf("backward m=%d bw=%d: the ±0 column accumulated %v at RHS %d, want the skip to leave +0", m, bw, a, c)
					}
				}
			}
			for c, a := range last {
				if !math.IsNaN(a) {
					t.Fatalf("backward m=%d bw=%d: the NaN element was skipped at RHS %d (acc %v)", m, bw, c, a)
				}
			}
		}
	}
}

// TestAssemblyHasNoFusedMultiplyAdd enforces the package's rounding
// contract on its assembly: a fused multiply-add rounds once where the
// portable bodies round twice, so no .s file may use one.
func TestAssemblyHasNoFusedMultiplyAdd(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no .s files found next to the test")
	}
	fused := regexp.MustCompile(`\bVF(N?M(ADD|SUB)|MADDSUB|MSUBADD)\w*`)
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if mn := fused.FindString(strings.ToUpper(code)); mn != "" {
				t.Errorf("%s:%d: fused multiply-add %s", name, i+1, mn)
			}
		}
	}
}
