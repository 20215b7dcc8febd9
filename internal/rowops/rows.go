package rowops

// This file holds the two row primitives in their portable Go form, and
// the table callers call them through. rows_amd64.go swaps in the AVX2
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

// Kernels are the two row primitives on the value plane F.
type Kernels[F float32 | float64] struct {
	// Forward subtracts bw (1..Block) solved rows, xs apart in x, from
	// each of rows consecutive m-wide rows of dst: for i in [0, rows), for
	// j ascending in [0, bw), dst[i·m:][:m] -= l[j·ns+i]·x[j·xs:][:m].
	Forward func(dst []float64, rows, m int, x []float64, xs int, l []F, ns, bw int)
	// Backward accumulates the partial sums of bw block columns over rows
	// consecutive m-wide rows of v: for every j in [0, bw), over li in
	// [0, rows) ascending, acc[j·m:][:m] += l[j·ns+li]·v[li·m:][:m],
	// skipping an element that compares equal to zero (so ±0 is skipped
	// and NaN is not). Each partial sum adds its rows in ascending order,
	// one rounded product at a time; how the body groups rows and columns
	// around that (columns outer, or several rows per load and store of a
	// partial sum) is its own choice.
	Backward func(acc []float64, bw, m int, v []float64, rows int, l []F, ns int)
}

var (
	vectorISA = "none"
	// F64 and F32 are the row primitives of the two value planes: the
	// AVX2 bodies where the CPU has them, the portable ones otherwise.
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
	return Kernels[F]{Forward: forwardRowsGo[F], Backward: backwardRowsGo[F]}
}

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

// backwardRowsGo keeps the block column outermost: compiled Go gains
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
