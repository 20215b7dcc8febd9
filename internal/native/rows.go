package native

// This file holds the two inner row primitives of the multi-RHS kernel
// (kernels.go) in their portable Go form, and the table the kernel calls
// them through. rows_amd64.go swaps in the AVX2 assembly bodies once, at
// start-up, when the CPU has them; every other build keeps these.
//
// Both bodies of a primitive perform the same multiplications, additions
// and subtractions on every entry in the same order — separate multiply
// and add, never fused, never reassociated, no horizontal sums — so which
// one runs affects speed only.

// rowBlock is the forward column-block width: the rank of the update one
// forward primitive call applies.
const rowBlock = 4

// rowKernels are the two row primitives on the value plane F.
type rowKernels[F float32 | float64] struct {
	// forward applies panel columns [jb, je) — whose solved rows are
	// v[jb:je] — to every row below them: for i in [je, ns), for j
	// ascending, v[i,:] -= panel[j*ns+i]·v[j,:]. je-jb is 1..rowBlock.
	forward func(v []float64, m int, panel []F, ns, jb, je int)
	// backward accumulates the partial sums of block columns [r0, r1)
	// over every row beyond the block: for every j, over li in [r1, ns)
	// ascending, acc[j-r0,:] += panel[j*ns+li]·v[li,:], skipping an element
	// that compares equal to zero (so ±0 is skipped and NaN is not). Which
	// of j and li is the outer loop is the body's choice.
	backward func(acc, v []float64, m int, panel []F, ns, r0, r1 int)
}

var (
	vectorISA = "none"
	rows64    = portableRows[float64]()
	rows32    = portableRows[float32]()
)

// VectorISA names the vector instruction set the multi-RHS row
// primitives run on: "avx2" where CPUID offered it at start-up, "none"
// for the portable Go bodies (another CPU, or a purego build).
func VectorISA() string { return vectorISA }

func portableRows[F float32 | float64]() rowKernels[F] {
	return rowKernels[F]{forward: forwardRowsGo[F], backward: backwardRowsGo[F]}
}

func forwardRowsGo[F float32 | float64](v []float64, m int, panel []F, ns, jb, je int) {
	if je-jb == rowBlock {
		// The full block in one pass over the row: each entry is loaded and
		// stored once for its four updates, applied left to right.
		x0, x1, x2, x3 := v[jb*m:][:m], v[(jb+1)*m:][:m], v[(jb+2)*m:][:m], v[(jb+3)*m:][:m]
		c0, c1, c2, c3 := panel[jb*ns:][:ns], panel[(jb+1)*ns:][:ns], panel[(jb+2)*ns:][:ns], panel[(jb+3)*ns:][:ns]
		for i := je; i < ns; i++ {
			l0, l1, l2, l3 := float64(c0[i]), float64(c1[i]), float64(c2[i]), float64(c3[i])
			dst := v[i*m:][:m]
			for c := range dst {
				dst[c] = dst[c] - l0*x0[c] - l1*x1[c] - l2*x2[c] - l3*x3[c]
			}
		}
		return
	}
	for i := je; i < ns; i++ {
		dst := v[i*m : (i+1)*m : (i+1)*m]
		for j := jb; j < je; j++ {
			lij := float64(panel[j*ns+i])
			xj := v[j*m : (j+1)*m : (j+1)*m]
			for c := range dst {
				dst[c] -= lij * xj[c]
			}
		}
	}
}

// backwardRowsGo keeps the block column outermost: compiled Go gains
// nothing from rows-outer (it holds no row in registers) and measured
// 40 % slower that way on CUBE-25 at m = 30; per entry the order is the
// same, rows ascending for every column.
func backwardRowsGo[F float32 | float64](acc, v []float64, m int, panel []F, ns, r0, r1 int) {
	for j := r0; j < r1; j++ {
		col := panel[j*ns : (j+1)*ns]
		aj := acc[(j-r0)*m : (j-r0+1)*m : (j-r0+1)*m]
		for li := r1; li < ns; li++ {
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
