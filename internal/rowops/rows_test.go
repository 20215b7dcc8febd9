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
// straight-line reference loops, bit for bit — Forward and Backward on
// both value planes, the panel, block, Schur and Add primitives on
// float64.

// referenceForward and referenceBackward are the primitives' definitions
// written as plainly as possible: one panel element, one entry at a time.
// referenceBackward takes m-wide rows, for referenceBackwardBlock; Backward
// is its m = 1 case.
func referenceForward[F float32 | float64](dst []float64, rows int, x []float64, xs int, l []F, ns, bw int) {
	for r := range rows {
		for j := range bw {
			dst[r] -= float64(l[j*ns+r]) * x[j*xs]
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

// referenceForwardPanel and referenceBackwardBlock are the panel and block
// primitives' definitions written as plainly as possible: one row, one
// column, one entry at a time, left-looking.
func referenceForwardPanel(v []float64, n, m int, l []float64, ns, pw int) {
	for i := range n {
		for j := range min(i, pw) {
			for c := range m {
				v[i*m+c] -= l[j*ns+i] * v[j*m+c]
			}
		}
		if i < pw {
			inv := 1 / l[i*ns+i]
			for c := range m {
				v[i*m+c] *= inv
			}
		}
	}
}

func referenceBackwardBlock(v []float64, n, m int, l []float64, ns, bw int) {
	sums := make([]float64, bw*m)
	referenceBackward(sums, bw, m, v[bw*m:], n-bw, l[bw:], ns)
	for j := bw - 1; j >= 0; j-- {
		for c := range m {
			x := v[j*m+c] - sums[j*m+c]
			for i := j + 1; i < bw; i++ {
				x -= l[j*ns+i] * v[i*m+c]
			}
			v[j*m+c] = x * (1 / l[j*ns+j])
		}
	}
}

// referenceSchur is Schur's definition written as plainly as possible:
// one entry, one group, one product at a time.
func referenceSchur(dst []float64, ld, n int, p []float64, groups int) {
	for c := range n {
		for r := c; r < n; r++ {
			for g := range groups {
				x := p[Block*g*ld:]
				if x[c] == 0 && x[ld+c] == 0 && x[2*ld+c] == 0 && x[3*ld+c] == 0 {
					continue
				}
				for q := range Block {
					dst[c*ld+r] -= x[q*ld+c] * x[q*ld+r]
				}
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

// panelBodies are one body of the panel and block primitives.
type panelBodies struct {
	forward  ForwardPanelKernel
	backward BackwardBlockKernel
}

// bothPanelBodies returns the portable and the selected panel and block
// bodies, in that order.
func bothPanelBodies() []panelBodies {
	return []panelBodies{
		{PortableForwardPanel(), PortableBackwardBlock()},
		{ForwardPanel, BackwardBlock},
	}
}

// TestRowPrimitivesPropertyRandomShapes drives Forward and Backward on
// random shapes — 0, 1 and many rows, every lane tail, every forward
// width 1..Block and backward width 1..Sums, the solved entries adjacent
// and farther apart, panel columns taller than the rows — over buffers
// with ±0 sprinkled in, and requires the selected and the portable bodies
// to leave every buffer exactly where the reference loops leave it,
// padding included.
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
	for trial := range 33 {
		for _, rows := range []int{0, 1, 2, trial, 1 + rng.Intn(40), 1 + rng.Intn(300)} {
			ns := rows + rng.Intn(4)
			for _, xs := range []int{1, 2 + rng.Intn(6)} {
				for bw := 1; bw <= Block; bw++ {
					what := fmt.Sprintf("forward rows=%d ns=%d xs=%d bw=%d", rows, ns, xs, bw)
					dst, x, l := random(rows+3), random((bw-1)*xs+1+3), panelOf((bw-1)*ns+rows+3)
					want := slices.Clone(dst)
					referenceForward(want, rows, x, xs, l, ns, bw)
					for _, body := range []Kernels[F]{Portable[F](), selected} {
						got := slices.Clone(dst)
						body.Forward(got, rows, x, xs, l, ns, bw)
						sameBits(t, what, got, want)
					}
				}
			}
			for bw := 1; bw <= Sums; bw++ {
				what := fmt.Sprintf("backward rows=%d ns=%d bw=%d", rows, ns, bw)
				acc, v, l := random(bw+3), random(rows+3), panelOf((bw-1)*ns+rows+3)
				want := slices.Clone(acc)
				referenceBackward(want, bw, 1, v, rows, l, ns)
				for _, body := range []Kernels[F]{Portable[F](), selected} {
					got := slices.Clone(acc)
					body.Backward(got, bw, v, rows, l, ns)
					sameBits(t, what, got, want)
				}
			}
		}
	}
}

// TestPanelPrimitivesRandomShapes drives ForwardPanel and BackwardBlock
// on every m in 1..9, 16, 30 and 33 (one ragged or full chunk, several,
// and the cube's width; ForwardPanel from m = 2), every panel width
// 1..Panel and block width 1..Sums, over row counts from the width itself
// (a triangle and nothing below) through every 8-row tile tail to past
// two 256-row groups, with ±0 sprinkled in, and requires the selected and
// the portable bodies to leave v where the reference loops leave it,
// padding included, and the panel untouched.
func TestPanelPrimitivesRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
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
	panelOf := func(n, ns, w int) []float64 {
		out := random((w-1)*ns + n + 3)
		for j := range w {
			out[j*ns+j] = 1 + rng.Float64()
		}
		return out
	}
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 30, 33} {
		for pw := 1; pw <= Panel && m >= 2; pw++ {
			for _, n := range []int{pw, pw + 1 + rng.Intn(9), pw + 9 + rng.Intn(40)} {
				ns := n + rng.Intn(4)
				what := fmt.Sprintf("forward panel m=%d n=%d ns=%d pw=%d", m, n, ns, pw)
				v, l := random(n*m+3), panelOf(n, ns, pw)
				want := slices.Clone(v)
				referenceForwardPanel(want, n, m, l, ns, pw)
				for _, body := range bothPanelBodies() {
					got, panel := slices.Clone(v), slices.Clone(l)
					body.forward(got, n, m, panel, ns, pw)
					sameBits(t, what, got, want)
					if !slices.Equal(panel, l) {
						t.Fatalf("%s: the panel changed", what)
					}
				}
			}
		}
		for bw := 1; bw <= Sums; bw++ {
			for _, n := range []int{bw, bw + 1 + rng.Intn(9), bw + 9 + rng.Intn(60), bw + 256, bw + 513 + rng.Intn(9)} {
				ns := n + rng.Intn(4)
				what := fmt.Sprintf("backward block m=%d n=%d ns=%d bw=%d", m, n, ns, bw)
				v, l := random(n*m+3), panelOf(n, ns, bw)
				want := slices.Clone(v)
				referenceBackwardBlock(want, n, m, l, ns, bw)
				for _, body := range bothPanelBodies() {
					got, panel := slices.Clone(v), slices.Clone(l)
					body.backward(random(bw*m), got, n, m, panel, ns, bw)
					sameBits(t, what, got, want)
					if !slices.Equal(panel, l) {
						t.Fatalf("%s: the panel changed", what)
					}
				}
			}
		}
	}
}

// TestSchurRandomShapes drives Schur on every block order 0..41 (no
// quad, whole quads of four columns, every ragged corner, every 8-row
// tail) at every panel depth 1..Panel/Block, with the leading dimension
// equal to the order and larger. The panel has ±0 sprinkled in and, per
// column, random whole groups of ±0 multipliers (so neighbouring columns
// of a quad disagree on which groups they skip); the block and its
// padding carry ±Inf, NaN and −0 where a product that should not reach
// them would show. The selected and the portable bodies must leave every
// buffer exactly where the reference loops leave it.
func TestSchurRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	negZero := math.Copysign(0, -1)
	specials := []float64{0, negZero, math.Inf(1), math.Inf(-1), math.NaN()}
	for n := 0; n <= 41; n++ {
		for groups := 1; groups <= Panel/Block; groups++ {
			for _, pad := range []int{0, 1 + rng.Intn(5)} {
				ld := n + pad
				p := make([]float64, Block*groups*ld+3)
				for i := range p {
					p[i] = rng.NormFloat64()
					if rng.Intn(12) == 0 {
						p[i] = specials[rng.Intn(2)]
					}
				}
				for c := range n {
					for g := range groups {
						if rng.Intn(4) == 0 {
							for q := range Block {
								p[(Block*g+q)*ld+c] = specials[rng.Intn(2)]
							}
						}
					}
				}
				dst := make([]float64, max(n*ld, 1)+3)
				for i := range dst {
					dst[i] = rng.NormFloat64()
					if rng.Intn(16) == 0 {
						dst[i] = specials[rng.Intn(len(specials))]
					}
				}
				what := fmt.Sprintf("schur n=%d ld=%d groups=%d", n, ld, groups)
				want := slices.Clone(dst)
				referenceSchur(want, ld, n, p, groups)
				for _, body := range []SchurKernel{PortableSchur(), Schur} {
					got := slices.Clone(dst)
					body(got, ld, n, p, groups)
					sameBits(t, what, got, want)
				}
			}
		}
	}
}

// TestAddMatchesReferee drives Add on every length 0..67 (no vector, whole
// 16- and 4-entry steps, every single-entry tail) at both buffers'
// alignments mod 32 bytes, over entries with ±0, ±Inf and NaN sprinkled
// in, src longer than dst and both padded with sentinels: the selected
// and the portable bodies must leave dst where the reference loop does
// and touch nothing past it.
func TestAddMatchesReferee(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	negZero := math.Copysign(0, -1)
	specials := []float64{0, negZero, math.Inf(1), math.Inf(-1), math.NaN()}
	fill := func(v []float64) {
		for i := range v {
			v[i] = rng.NormFloat64()
			if rng.Intn(8) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	for n := 0; n <= 67; n++ {
		for _, off := range [][2]int{{0, 0}, {1, 0}, {0, 3}, {2, 1}} {
			dst := make([]float64, off[0]+n+3)
			src := make([]float64, off[1]+n+5)
			fill(dst)
			fill(src)
			want := slices.Clone(dst)
			for i := range n {
				want[off[0]+i] = dst[off[0]+i] + src[off[1]+i]
			}
			for _, body := range []AddKernel{PortableAdd(), Add} {
				got := slices.Clone(dst)
				body(got[off[0]:off[0]+n], src[off[1]:])
				sameBits(t, fmt.Sprintf("add n=%d offsets=%v", n, off), got, want)
			}
		}
	}
}

// blockSpecialValues runs BackwardBlock, or ForwardPanel when forward is
// set, over a block of w columns whose rows below are v, with panel's
// elements below the block: the block's own rows and diagonal are random,
// its pivots in [2, 3). Both bodies must leave every row where the
// reference loops do.
func blockSpecialValues(t *testing.T, what string, forward bool,
	panel []float64, v []float64, rows, m, ns, w int, rng *rand.Rand) {
	t.Helper()
	n, nsb := w+rows, w+rows+1
	l := make([]float64, (w-1)*nsb+n)
	for j := range w {
		for i := range w {
			l[j*nsb+i] = rng.NormFloat64()
		}
		l[j*nsb+j] = 2 + rng.Float64()
		copy(l[j*nsb+w:j*nsb+n], panel[j*ns:j*ns+rows])
	}
	x := make([]float64, n*m)
	for i := range w * m {
		x[i] = rng.NormFloat64()
	}
	copy(x[w*m:], v)
	want := slices.Clone(x)
	if forward {
		what += " (panel)"
		referenceForwardPanel(want, n, m, l, nsb, w)
	} else {
		what += " (block)"
		referenceBackwardBlock(want, n, m, l, nsb, w)
	}
	for _, body := range bothPanelBodies() {
		got := slices.Clone(x)
		if forward {
			body.forward(got, n, m, l, nsb, w)
		} else {
			body.backward(make([]float64, w*m), got, n, m, l, nsb, w)
		}
		sameBits(t, what, got, want)
	}
}

// TestRowPrimitivesSpecialValues calls the primitives on a panel holding
// 0, −0 and NaN against rows holding ±Inf: Forward and Backward on
// one-entry rows, the forward solved entries adjacent and farther apart
// with NaN in the gap between them (which only a wrong stride would
// read), on both planes, and ForwardPanel and BackwardBlock on m-wide
// rows. Both bodies must give the same bits as the reference loops, and
// the backward zero skip is pinned: a column of ±0 against infinite rows
// accumulates nothing, a NaN element is not skipped.
func TestRowPrimitivesSpecialValues(t *testing.T) {
	rowPrimitivesSpecialValues(t)
	rowPrimitivesSpecialValuesWidth1(t, Portable[float64](), F64)
	rowPrimitivesSpecialValuesWidth1(t, Portable[float32](), F32)
	rowPrimitivesSpecialValuesGrouped(t)
}

// rowPrimitivesSpecialValuesGrouped pins the backward zero skip at m ≥ 2:
// the partial sums of the reference loops are checked below, and
// BackwardBlock, given the same panel elements as the rows below its
// block, must match the reference loops bit for bit on both bodies. Its
// AVX2 body flags the rows four at a time and takes a flagged row (one of
// its bw panel elements is ±0) through the blend. Rows 3..13 give no full
// four, whole fours and fours with one to three rows left over; widths
// 1..8 fill a partial-sum block. Four cases:
//
//   - one zero: in every group, the element at position p (0..3, shifted
//     by the column) is ±0 and its row of v holds ±Inf and NaN, which only
//     a skip keeps out of the partial sum; the other three rows must still
//     be added;
//   - an all-zero group: one group is ±0 in every column, against rows of
//     ±Inf, and column 0 is ±0 throughout, its partial sum starting at −0,
//     which must stay −0;
//   - a NaN element among three non-zero ones, which must not be skipped.
func rowPrimitivesSpecialValuesGrouped(t *testing.T) {
	negZero := math.Copysign(0, -1)
	signedZero := func(i int) float64 { return []float64{0, negZero}[i%2] }
	poison := func(row []float64) { // what a row beyond a skipped element may hold
		row[0], row[len(row)-1] = math.Inf(1), math.Inf(-1)
		if len(row) > 2 {
			row[1] = math.NaN()
		}
	}
	for _, m := range []int{2, 3, 4, 5, 7, 8, 30} {
		for _, rows := range []int{3, 4, 5, 7, 8, 9, 13} {
			ns := rows + 3
			for bw := 1; bw <= 8; bw++ {
				rng := rand.New(rand.NewSource(int64(10000*m + 100*rows + bw)))
				fresh := func() ([]float64, []float64, []float64) {
					panel := make([]float64, bw*ns)
					for i := range panel {
						panel[i] = rng.NormFloat64()
					}
					v := make([]float64, rows*m)
					for i := range v {
						v[i] = rng.NormFloat64()
					}
					acc := make([]float64, bw*m)
					for i := range acc {
						acc[i] = rng.NormFloat64()
					}
					return panel, v, acc
				}
				run := func(what string, panel, v, acc []float64) []float64 {
					t.Helper()
					what = fmt.Sprintf("backward m=%d rows=%d bw=%d: %s", m, rows, bw, what)
					want := slices.Clone(acc)
					referenceBackward(want, bw, m, v, rows, panel, ns)
					blockSpecialValues(t, what, false, panel, v, rows, m, ns, bw, rng)
					return want
				}

				for p := range 4 {
					panel, v, acc := fresh()
					for j := range bw {
						for li := (p + j) % 4; li < rows; li += 4 {
							panel[j*ns+li] = signedZero(li + j)
						}
					}
					for li := p; li < rows; li += 4 {
						poison(v[li*m:][:m])
					}
					want := run(fmt.Sprintf("one zero at position %d", p), panel, v, acc)
					for j := range bw {
						if (p+j)%4 != p%4 {
							continue // this column's zeros sit on finite rows
						}
						for c, a := range want[j*m:][:m] {
							if math.IsNaN(a) || math.IsInf(a, 0) {
								t.Fatalf("backward m=%d rows=%d bw=%d p=%d: column %d accumulated %v at RHS %d past its zero elements", m, rows, bw, p, j, a, c)
							}
						}
					}
				}

				{
					panel, v, acc := fresh()
					g0 := 4 * max(0, rows/4-1)
					for li := g0; li < min(g0+4, rows); li++ {
						for j := range bw {
							panel[j*ns+li] = signedZero(li + j)
						}
						poison(v[li*m:][:m])
					}
					for li := range rows {
						panel[li] = signedZero(li)
						poison(v[li*m:][:m])
					}
					for c := range m {
						acc[c] = negZero
					}
					want := run("all-zero group and column", panel, v, acc)
					for c, a := range want[:m] {
						if math.Float64bits(a) != math.Float64bits(negZero) {
							t.Fatalf("backward m=%d rows=%d bw=%d: the zero column left %v at RHS %d in a partial sum that was −0", m, rows, bw, a, c)
						}
					}
				}

				{
					panel, v, acc := fresh()
					for j := range bw {
						panel[j*ns+min(j%4, rows-1)] = math.NaN()
					}
					want := run("NaN element", panel, v, acc)
					for c, a := range want {
						if !math.IsNaN(a) {
							t.Fatalf("backward m=%d rows=%d bw=%d: the NaN element was skipped at partial sum %d, RHS %d (acc %v)", m, rows, bw, c/m, c%m, a)
						}
					}
				}
			}
		}
	}
}

// rowPrimitivesSpecialValuesWidth1 is the same pin at m = 1, where the
// AVX2 bodies put neighbouring rows (forward) or block columns (backward)
// in the lanes: rows 1, 3, 4, 5 and 67 reach every lane tail, backward
// widths up to 8 fill both partial-sum registers. Every fourth row is
// zero (of either sign) across the whole block and meets +Inf, −Inf or NaN
// in v; column 0 is all zero and its partial sum starts at −0, which the
// skip must leave as −0; the last column holds a NaN element, which it
// must not skip.
func rowPrimitivesSpecialValuesWidth1[F float32 | float64](t *testing.T, portable, selected Kernels[F]) {
	negZero := math.Copysign(0, -1)
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for _, rows := range []int{1, 3, 4, 5, 67} {
		ns := rows + 3
		for bw := 1; bw <= 8; bw++ {
			rng := rand.New(rand.NewSource(int64(1000*rows + bw)))
			panel := make([]F, ns*bw)
			for i := range panel {
				panel[i] = F(rng.NormFloat64())
			}
			v := make([]float64, rows)
			for li := range v {
				v[li] = rng.NormFloat64()
			}
			for li := 1; li < rows; li += 4 {
				for j := range bw {
					panel[j*ns+li] = F([]float64{0, negZero}[(li/4+j)%2])
				}
				v[li] = specials[(li/4)%len(specials)]
			}
			for li := range rows {
				panel[li] = F([]float64{0, negZero}[li%2])
			}
			nanRow := min(2, rows-1)
			if bw > 1 && rows > 1 {
				panel[(bw-1)*ns+nanRow] = F(math.NaN())
			}

			what := fmt.Sprintf("backward m=1 rows=%d bw=%d", rows, bw)
			acc := make([]float64, bw)
			for j := range acc {
				acc[j] = rng.NormFloat64()
			}
			acc[0] = negZero
			wantAcc, gotAcc := slices.Clone(acc), slices.Clone(acc)
			portable.Backward(wantAcc, bw, v, rows, panel, ns)
			selected.Backward(gotAcc, bw, v, rows, panel, ns)
			sameBits(t, what, gotAcc, wantAcc)
			if math.Float64bits(wantAcc[0]) != math.Float64bits(negZero) {
				t.Fatalf("%s: the zero column left %v in a partial sum that was −0", what, wantAcc[0])
			}
			for j := 1; j < bw; j++ {
				nan := j == bw-1 && rows > 1
				if a := wantAcc[j]; math.IsNaN(a) != nan || math.IsInf(a, 0) {
					t.Fatalf("%s: column %d accumulated %v (NaN element: %v)", what, j, a, nan)
				}
			}

			if bw > Block {
				continue
			}
			for _, xs := range []int{1, 3} {
				what := fmt.Sprintf("forward m=1 rows=%d bw=%d xs=%d", rows, bw, xs)
				x := make([]float64, (bw-1)*xs+1)
				for i := range x {
					x[i] = math.NaN() // the gap between solved entries; only a wrong stride reads it
				}
				for j := range bw {
					x[j*xs] = []float64{rng.NormFloat64(), math.Inf(1), math.Inf(-1), negZero}[j]
				}
				dst := slices.Clone(v)
				dst[0] = negZero
				want, got := slices.Clone(dst), slices.Clone(dst)
				portable.Forward(want, rows, x, xs, panel, ns, bw)
				selected.Forward(got, rows, x, xs, panel, ns, bw)
				sameBits(t, what, got, want)
				ref := slices.Clone(dst)
				referenceForward(ref, rows, x, xs, panel, ns, bw)
				sameBits(t, what+" (reference)", want, ref)
			}
		}
	}
}

// rowPrimitivesSpecialValues is the same pin on m-wide rows: the panel's
// last column is ±0 below the triangle, its column 0 holds a NaN, and
// every row below holds both infinities; ForwardPanel and BackwardBlock
// see them as the rows below their triangle.
func rowPrimitivesSpecialValues(t *testing.T) {
	const ns = 11
	negZero := math.Copysign(0, -1)
	for _, m := range []int{2, 3, 4, 7, 30} {
		for bw := 1; bw <= Block; bw++ {
			rng := rand.New(rand.NewSource(int64(100*m + bw)))
			panel := make([]float64, ns*bw)
			for i := range panel {
				panel[i] = rng.NormFloat64()
			}
			// Below the block: the last column is all ±0 and column 0 holds a
			// NaN, so the block solve, last column first, keeps the NaN out
			// of the ±0 column's row; zeros of both signs are sprinkled over
			// the rest.
			for li := bw; li < ns; li++ {
				panel[(bw-1)*ns+li] = []float64{0, negZero}[li%2]
			}
			panel[bw+2] = math.NaN()
			if bw > 2 {
				panel[1*ns+bw+1], panel[1*ns+bw+3] = 0, negZero
			}
			v := make([]float64, ns*m)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			for li := bw; li < ns; li++ { // every row beyond the block holds both infinities
				v[li*m], v[li*m+m-1] = math.Inf(1), math.Inf(-1)
			}
			below, rows := panel[bw:], ns-bw
			what := fmt.Sprintf("forward m=%d bw=%d", m, bw)
			blockSpecialValues(t, what, true, below, v[bw*m:], rows, m, ns, bw, rng)

			what = fmt.Sprintf("backward m=%d bw=%d", m, bw)
			blockSpecialValues(t, what, false, below, v[bw*m:], rows, m, ns, bw, rng)
			acc := make([]float64, bw*m)
			referenceBackward(acc, bw, m, v[bw*m:], rows, below, ns)
			if bw > 1 {
				for c, a := range acc[(bw-1)*m:] {
					if math.Float64bits(a) != 0 {
						t.Fatalf("backward m=%d bw=%d: the ±0 column accumulated %v at RHS %d, want the skip to leave +0", m, bw, a, c)
					}
				}
			}
			for c, a := range acc[:m] {
				if !math.IsNaN(a) {
					t.Fatalf("backward m=%d bw=%d: the NaN element was skipped at RHS %d (acc %v)", m, bw, c, a)
				}
			}
		}
	}
}

// FuzzRowPrimitives drives one Forward or Backward call per input on both
// value planes and requires the selected body, the portable body and the
// reference loops to leave every buffer with the same bits, padding
// included. The first bytes choose the direction, rows (0..300: every
// lane tail, many four-row groups), bw (1..Block forward, 1..Sums
// backward), ns − rows (0..3) and xs − 1 (0..3); the rest spell the panel
// elements and the entries from an alphabet of ±0, ±Inf, NaN, float64
// and float32 denormals and small normals, reused cyclically when the
// input runs out.
func FuzzRowPrimitives(f *testing.F) {
	f.Add([]byte{0, 29, 13, 3, 1, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 29, 13, 7, 2, 0, 1, 9, 9, 9, 0, 10, 11, 2})
	f.Add([]byte{1, 1, 40, 8, 3, 0, 4, 12, 13, 14, 15})
	f.Add([]byte{1, 3, 8, 3, 0, 0, 9, 0, 9, 9, 1, 9, 9, 9, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		fuzzRowPrimitives(t, data, F64)
		fuzzRowPrimitives(t, data, F32)
	})
}

// fuzzSpeller returns the value source of the fuzz targets: each call
// spells the next byte of spell (cyclically; 1 when it is empty) as ±0,
// ±Inf, NaN, a float64 or float32 denormal, or a small normal.
func fuzzSpeller(spell []byte) func() float64 {
	next := 0
	return func() float64 {
		if len(spell) == 0 {
			return 1
		}
		b := spell[next%len(spell)]
		next++
		sign := 1.0
		if b&0x80 != 0 {
			sign = -1
		}
		switch b & 0xf {
		case 0:
			return math.Copysign(0, sign)
		case 1:
			return math.Inf(int(sign))
		case 2:
			return math.NaN()
		case 3:
			return sign * math.SmallestNonzeroFloat64
		case 4:
			return sign * math.SmallestNonzeroFloat32
		default:
			return sign * float64(b>>4&7+1) / float64(b&0xf)
		}
	}
}

func fuzzRowPrimitives[F float32 | float64](t *testing.T, data []byte, selected Kernels[F]) {
	backward := data[0]&1 != 0
	rows := (int(data[1]) | int(data[2])<<8) % 301
	ns := rows + int(data[4])%4
	xs := 1 + int(data[5])%4
	value := fuzzSpeller(data[6:])
	values := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = value()
		}
		return out
	}
	panel := func(n int) []F {
		out := make([]F, n)
		for i := range out {
			out[i] = F(value())
		}
		return out
	}
	if backward {
		bw := 1 + int(data[3])%Sums
		what := fmt.Sprintf("backward rows=%d ns=%d bw=%d", rows, ns, bw)
		l, v, acc := panel((bw-1)*ns+rows+3), values(rows+3), values(bw+3)
		want := slices.Clone(acc)
		referenceBackward(want, bw, 1, v, rows, l, ns)
		for _, body := range []Kernels[F]{Portable[F](), selected} {
			got := slices.Clone(acc)
			body.Backward(got, bw, v, rows, l, ns)
			sameBits(t, what, got, want)
		}
		return
	}
	bw := 1 + int(data[3])%Block
	what := fmt.Sprintf("forward rows=%d ns=%d xs=%d bw=%d", rows, ns, xs, bw)
	l, x, dst := panel((bw-1)*ns+rows+3), values((bw-1)*xs+1+3), values(rows+3)
	want := slices.Clone(dst)
	referenceForward(want, rows, x, xs, l, ns, bw)
	for _, body := range []Kernels[F]{Portable[F](), selected} {
		got := slices.Clone(dst)
		body.Forward(got, rows, x, xs, l, ns, bw)
		sameBits(t, what, got, want)
	}
}

// FuzzPanelPrimitives drives one ForwardPanel or BackwardBlock call per
// input, float64 (the float32 plane reaches them widened, exactly), and
// requires the selected body, the portable body and the reference loops
// to leave v with the same bits, padding included, and the panel
// untouched. The first bytes choose the direction,
// m (1..9 or 30 backward, 2..9 or 30 forward), the width (1..Panel forward, 1..Sums backward), the row
// count beyond the width (0..599: the triangle alone, every 8-row tile
// tail, past two 256-row groups) and ns − n (0..3); the rest spell the
// panel and the rows from the alphabet of FuzzRowPrimitives, pivots
// included, reused cyclically.
func FuzzPanelPrimitives(f *testing.F) {
	f.Add([]byte{0, 9, 31, 40, 0, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 9, 7, 10, 1, 2, 0x80, 9, 9, 0, 10, 11, 2})
	f.Add([]byte{1, 2, 5, 3, 2, 3, 4, 12, 13, 14, 15})
	f.Add([]byte{0, 0, 3, 9, 0, 0, 9, 0, 9, 9, 1, 9, 9, 9, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		fuzzPanelPrimitives(t, data)
	})
}

func fuzzPanelPrimitives(t *testing.T, data []byte) {
	backward := data[0]&1 != 0
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 30}
	if !backward {
		ms = ms[1:] // ForwardPanel takes m ≥ 2
	}
	m := ms[int(data[1])%len(ms)]
	w := 1 + int(data[2])%Panel
	if backward {
		w = 1 + int(data[2])%Sums
	}
	n := w + (int(data[3])|int(data[4])<<8)%600
	ns := n + int(data[5])%4
	value := fuzzSpeller(data[6:])
	l := make([]float64, (w-1)*ns+n+3)
	for i := range l {
		l[i] = value()
	}
	v := make([]float64, n*m+3)
	for i := range v {
		v[i] = value()
	}
	want := slices.Clone(v)
	what := fmt.Sprintf("forward panel m=%d n=%d ns=%d pw=%d", m, n, ns, w)
	if backward {
		what = fmt.Sprintf("backward block m=%d n=%d ns=%d bw=%d", m, n, ns, w)
		referenceBackwardBlock(want, n, m, l, ns, w)
	} else {
		referenceForwardPanel(want, n, m, l, ns, w)
	}
	for _, body := range bothPanelBodies() {
		got, panel := slices.Clone(v), slices.Clone(l)
		if backward {
			body.backward(make([]float64, w*m), got, n, m, panel, ns, w)
		} else {
			body.forward(got, n, m, panel, ns, w)
		}
		sameBits(t, what, got, want)
		sameBits(t, what+" (panel)", panel, l)
	}
}

// FuzzSchur drives one Schur call per input and requires the selected
// body, the portable body and the reference loops to leave the block and
// the panel with the same bits, padding included. The first bytes choose
// the block order (0..47: quads of four columns, 8-row tiles and every
// ragged tail), the panel depth (1..Panel/Block groups) and ld − n (0..3);
// the next four are skip marks, byte c mod 4 naming the groups whose four
// multipliers of column c are forced to ±0; the rest spell the entries
// from the alphabet of FuzzRowPrimitives, reused cyclically.
func FuzzSchur(f *testing.F) {
	f.Add([]byte{16, 7, 1, 0, 0, 0, 0, 5, 6, 7, 8, 9})
	f.Add([]byte{13, 3, 0, 1, 2, 4, 8, 0, 1, 2, 0x80, 9, 10})
	f.Add([]byte{47, 1, 3, 0xff, 0, 0x55, 0, 3, 4, 9, 0x8b, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		n := int(data[0]) % 48
		groups := 1 + int(data[1])%(Panel/Block)
		ld := n + int(data[2])%4
		marks := data[3:7]
		spell := fuzzSpeller(data[7:])
		p := make([]float64, Block*groups*ld+3)
		for i := range p {
			p[i] = spell()
		}
		for c := range n {
			for g := range groups {
				if marks[c%4]>>g&1 != 0 {
					for q := range Block {
						p[(Block*g+q)*ld+c] = math.Copysign(0, spell())
					}
				}
			}
		}
		dst := make([]float64, max(n*ld, 1)+3)
		for i := range dst {
			dst[i] = spell()
		}
		what := fmt.Sprintf("schur n=%d ld=%d groups=%d", n, ld, groups)
		want := slices.Clone(dst)
		referenceSchur(want, ld, n, p, groups)
		for _, body := range []SchurKernel{PortableSchur(), Schur} {
			got, panel := slices.Clone(dst), slices.Clone(p)
			body(got, ld, n, panel, groups)
			sameBits(t, what, got, want)
			sameBits(t, what+" (panel)", panel, p)
		}
	})
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
	text := regexp.MustCompile(`^TEXT\s+·(\w+)\(SB\)`)
	scanned := map[string]bool{}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if sym := text.FindStringSubmatch(code); sym != nil {
				scanned[sym[1]] = true
			}
			if mn := fused.FindString(strings.ToUpper(code)); mn != "" {
				t.Errorf("%s:%d: fused multiply-add %s", name, i+1, mn)
			}
		}
	}
	// The scan must have read every body: the one-entry row ones of both
	// planes, and the float64-only panel, block, Schur and Add bodies.
	bodies := []string{"forwardPanelAVX2f64", "backwardBlockAVX2f64", "schurAVX2f64", "addAVX2f64"}
	for _, body := range []string{"forwardRows1", "backwardRows1"} {
		for _, plane := range []string{"f64", "f32"} {
			bodies = append(bodies, body+"AVX2"+plane)
		}
	}
	for _, body := range bodies {
		if !scanned[body] {
			t.Errorf("TEXT ·%s not found in %v", body, files)
		}
	}
}
