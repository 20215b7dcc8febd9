package rowops

// This file holds the row primitives in their portable Go form, and the
// tables callers call them through. rows_amd64.go swaps in the AVX2
// assembly bodies once, at start-up, when the CPU has them; every other
// build keeps these.
//
// Both bodies of a primitive perform the same multiplications, additions
// and subtractions on every entry in the same order — separate multiply
// and add, never fused, never reassociated, no horizontal sums — so which
// one runs affects speed only.

// Block is the forward column-block width: the largest rank of the update
// one forward primitive call applies.
const Block = 4

// Panel is the most pivots one Schur call applies (Panel/Block groups of
// Block) and the most columns one ForwardPanel call solves. The AVX2
// bodies hold a tile of rows in registers across all of them.
const Panel = 8 * Block

// Sums is the most block columns one BackwardBlock call takes: the AVX2
// body holds one partial sum per block column in a register.
const Sums = 8

// Kernels are the one-entry row primitives on the value plane F.
type Kernels[F float32 | float64] struct {
	// Forward subtracts bw (1..Block) solved entries, xs apart in x, each
	// scaled by a panel element, from rows consecutive entries of dst: for
	// i in [0, rows), for j ascending in [0, bw), dst[i] -= l[j·ns+i]·x[j·xs].
	Forward func(dst []float64, rows int, x []float64, xs int, l []F, ns, bw int)
	// Backward accumulates the partial sums of bw (1..Sums) block columns
	// over rows consecutive entries of v: for every j in [0, bw), over li
	// in [0, rows) ascending, acc[j] += l[j·ns+li]·v[li], skipping an
	// element that compares equal to zero (so ±0 is skipped and NaN is
	// not). Each partial sum adds its rows in ascending order, one rounded
	// product at a time.
	Backward func(acc []float64, bw int, v []float64, rows int, l []F, ns int)
}

// ForwardPanelKernel is the forward sweep over one panel of pw (1..Panel)
// columns of a supernode, float64 only: n ≥ pw consecutive m-wide rows of
// v, m ≥ 2, the panel's columns ns apart in l, both from the panel's first
// row on. For i in [0, n) ascending, row i loses l[j·ns+i]·v[j·m:][:m] for
// j ascending in [0, min(i, pw)), and a row i < pw is then scaled by
// 1/l[i·ns+i] — the panel's triangle solved, then applied to every row
// below it. The pivots must be usable; the caller checks them.
type ForwardPanelKernel func(v []float64, n, m int, l []float64, ns, pw int)

// BackwardBlockKernel is the back-substitution of one block of bw
// (1..Sums) columns, float64 only: n ≥ bw consecutive m-wide rows of v,
// the block's columns ns apart in l, both from the block's first row on.
// Row j < bw becomes (v_j − s_j − Σ l[j·ns+i]·x_i) · 1/l[j·ns+j], j
// descending, the sum over i in (j, bw) ascending, where the partial sum
// s_j adds l[j·ns+i]·v_i over the rows i in [bw, n) from +0 as Backward
// does, entry by entry. acc (bw·m entries) is scratch; its contents on
// entry are ignored. The pivots must be usable; the caller checks them.
type BackwardBlockKernel func(acc, v []float64, n, m int, l []float64, ns, bw int)

// SchurKernel is the trailing-update primitive of a frontal
// factorization, float64 only. For every column c in [0, n) of the
// column-major block dst (leading dimension ld), every row r in [c, n),
// and every group g in [0, groups) ascending (groups ≤ Panel/Block),
//
//	dst[c·ld+r] -= p[(4g+q)·ld+c]·p[(4g+q)·ld+r]   for q = 0, 1, 2, 3 in turn,
//
// except that a column skips a group whose four multipliers
// p[(4g+q)·ld+c] all compare equal to zero (±0; NaN does not). p holds the
// panel's 4·groups factored columns, ld apart, from the block's first row
// on: the multipliers of trailing column c and the entries they scale are
// rows of the same columns, as in a Cholesky front.
type SchurKernel func(dst []float64, ld, n int, p []float64, groups int)

// AddKernel is the extend-add primitive, plane-independent: dst[i] +=
// src[i] for every i in [0, len(dst)), dst the left operand of each sum.
// src must be at least as long as dst.
type AddKernel func(dst, src []float64)

var (
	vectorISA = "none"
	// Schur is the trailing-update primitive: the AVX2 body where the CPU
	// has it, the portable one otherwise.
	Schur = PortableSchur()
	// Add is the extend-add primitive: the AVX2 body where the CPU has
	// it, the portable one otherwise.
	Add = PortableAdd()
	// ForwardPanel and BackwardBlock are the sweeps' at m ≥ 2, selected
	// like F64.
	ForwardPanel  = PortableForwardPanel()
	BackwardBlock = PortableBackwardBlock()
	// F64 and F32 are the one-entry row primitives of the two planes:
	// the AVX2 bodies where the CPU has them, the portable ones otherwise.
	F64 = Portable[float64]()
	F32 = Portable[float32]()
)

// VectorISA names the vector instruction set the row primitives run on:
// "avx2" where CPUID offered it at start-up, "none" for the portable Go
// bodies (another CPU, or a purego build).
func VectorISA() string { return vectorISA }

// Portable returns the portable Go bodies whatever the CPU offers: the
// referee the selected bodies are tested against.
func Portable[F float32 | float64]() Kernels[F] {
	return Kernels[F]{Forward: forwardGo[F], Backward: backwardGo[F]}
}

// PortableForwardPanel and PortableBackwardBlock return the portable Go
// bodies of ForwardPanel and BackwardBlock whatever the CPU offers: the
// referees the selected bodies are tested against.
func PortableForwardPanel() ForwardPanelKernel   { return forwardPanelGo }
func PortableBackwardBlock() BackwardBlockKernel { return backwardBlockGo }

// PortableSchur returns the portable Go body of Schur whatever the CPU
// offers: the referee the selected body is tested against.
func PortableSchur() SchurKernel { return schurGo }

// PortableAdd returns the portable Go body of Add whatever the CPU
// offers: the referee the selected body is tested against.
func PortableAdd() AddKernel { return addGo }

func addGo(dst, src []float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
	}
}

// schurGo takes one column at a time and, per group, applies the group's
// four products to the whole column in one pass — the rank-4 pass of
// forwardRowsGo — so every entry meets its products in ascending order.
func schurGo(dst []float64, ld, n int, p []float64, groups int) {
	if !schurShape(ld, n, groups) {
		return
	}
	for c := 0; c < n; c++ {
		col := dst[c*ld+c : c*ld+n]
		for g := 0; g < groups; g++ {
			x := p[Block*g*ld:]
			l0, l1, l2, l3 := x[c], x[ld+c], x[2*ld+c], x[3*ld+c]
			if l0 == 0 && l1 == 0 && l2 == 0 && l3 == 0 {
				continue
			}
			x0, x1, x2, x3 := x[c:n], x[ld+c:ld+n], x[2*ld+c:2*ld+n], x[3*ld+c:3*ld+n]
			for i := range col {
				col[i] = col[i] - l0*x0[i] - l1*x1[i] - l2*x2[i] - l3*x3[i]
			}
		}
	}
}

// schurShape reports whether a Schur call has a column to update, and
// panics on a shape the callers can only pass through a bug.
func schurShape(ld, n, groups int) bool {
	if n <= 0 {
		return false
	}
	if groups < 1 || groups > Panel/Block || ld < n {
		panic("rowops: Schur called with a bad shape")
	}
	return true
}

// forwardGo and backwardGo are Forward and Backward: the general-m
// bodies on one-entry rows. At m ≥ 2 those bodies serve the panel and
// block bodies below.
func forwardGo[F float32 | float64](dst []float64, rows int, x []float64, xs int, l []F, ns, bw int) {
	forwardRowsGo(dst, rows, 1, x, xs, l, ns, bw)
}

func backwardGo[F float32 | float64](acc []float64, bw int, v []float64, rows int, l []F, ns int) {
	backwardRowsGo(acc, bw, 1, v, rows, l, ns)
}

// forwardRowsGo subtracts bw solved m-wide rows, xs apart in x, from each
// of rows consecutive m-wide rows of dst, as Forward does at m = 1.
func forwardRowsGo[F float32 | float64](dst []float64, rows, m int, x []float64, xs int, l []F, ns, bw int) {
	if bw == Block {
		// The full block in one pass over the row: each entry is loaded and
		// stored once for its four updates, applied left to right.
		x0, x1, x2, x3 := x[:m], x[xs:][:m], x[2*xs:][:m], x[3*xs:][:m]
		c0, c1, c2, c3 := l[:rows], l[ns:][:rows], l[2*ns:][:rows], l[3*ns:][:rows]
		for i := 0; i < rows; i++ {
			l0, l1, l2, l3 := float64(c0[i]), float64(c1[i]), float64(c2[i]), float64(c3[i])
			row := dst[i*m:][:m]
			for c := range row {
				row[c] = row[c] - l0*x0[c] - l1*x1[c] - l2*x2[c] - l3*x3[c]
			}
		}
		return
	}
	for i := 0; i < rows; i++ {
		row := dst[i*m : (i+1)*m : (i+1)*m]
		for j := 0; j < bw; j++ {
			lij := float64(l[j*ns+i])
			xj := x[j*xs : j*xs+m : j*xs+m]
			for c := range row {
				row[c] -= lij * xj[c]
			}
		}
	}
}

// backwardRowsGo accumulates partial sums over m-wide rows, as Backward
// does at m = 1. It keeps the block column outermost: compiled Go gains
// nothing from rows-outer (it holds no row in registers) and measured
// 40 % slower that way on CUBE-25 at m = 30; per entry the order is the
// same, rows ascending for every column.
func backwardRowsGo[F float32 | float64](acc []float64, bw, m int, v []float64, rows int, l []F, ns int) {
	for j := 0; j < bw; j++ {
		col := l[j*ns : j*ns+rows]
		aj := acc[j*m : (j+1)*m : (j+1)*m]
		for li := 0; li < rows; li++ {
			lij := float64(col[li])
			if lij == 0 {
				continue
			}
			src := v[li*m : (li+1)*m : (li+1)*m]
			for c := range aj {
				aj[c] += lij * src[c]
			}
		}
	}
}

// forwardPanelGo solves the panel right-looking, a group of Block columns
// at a time: the group's triangle column by column, then one
// forwardRowsGo pass for the rows below the group. Every row still meets
// its columns in ascending order, and is scaled after the last of them.
func forwardPanelGo(v []float64, n, m int, l []float64, ns, pw int) {
	for jb := 0; jb < pw; jb += Block {
		je := min(jb+Block, pw)
		for j := jb; j < je; j++ {
			col := l[j*ns : j*ns+n]
			inv := 1 / col[j]
			xj := v[j*m : (j+1)*m : (j+1)*m]
			for c := range xj {
				xj[c] *= inv
			}
			for i := j + 1; i < je; i++ {
				lij := col[i]
				dst := v[i*m : (i+1)*m : (i+1)*m]
				for c := range dst {
					dst[c] -= lij * xj[c]
				}
			}
		}
		if je < n {
			forwardRowsGo(v[je*m:], n-je, m, v[jb*m:], m, l[jb*ns+je:], ns, je-jb)
		}
	}
}

// backwardBlockGo accumulates the partial sums with backwardRowsGo, then
// solves the block's triangle column by column, descending.
func backwardBlockGo(acc, v []float64, n, m int, l []float64, ns, bw int) {
	acc = acc[: bw*m : bw*m]
	clear(acc)
	backwardRowsGo(acc, bw, m, v[bw*m:], n-bw, l[bw:], ns)
	x := v[: bw*m : bw*m]
	for i := range acc {
		x[i] -= acc[i]
	}
	for j := bw - 1; j >= 0; j-- {
		col := l[j*ns : j*ns+bw]
		xj := x[j*m : (j+1)*m : (j+1)*m]
		for i := j + 1; i < bw; i++ {
			lij := col[i]
			xi := x[i*m : (i+1)*m : (i+1)*m]
			for c := range xj {
				xj[c] -= lij * xi[c]
			}
		}
		inv := 1 / col[j]
		for c := range xj {
			xj[c] *= inv
		}
	}
}
