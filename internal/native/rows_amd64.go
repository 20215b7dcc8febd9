//go:build !purego

package native

// The AVX2 bodies of the row primitives (rows_amd64.s) and their start-up
// selection. The Go wrappers take the same slices as the portable bodies
// and check the extent the assembly will touch once per call; the
// assembly itself sees only pointers and lengths proven here.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func forwardRowsAVX2f64(dst *float64, rows, m int, x *float64, l *float64, ns, bw int)

//go:noescape
func forwardRowsAVX2f32(dst *float64, rows, m int, x *float64, l *float32, ns, bw int)

//go:noescape
func backwardRowsAVX2f64(acc *float64, bw, m int, v *float64, rows int, l *float64, ns int)

//go:noescape
func backwardRowsAVX2f32(acc *float64, bw, m int, v *float64, rows int, l *float32, ns int)

func init() {
	if cpuHasAVX2() {
		vectorISA = "avx2"
		rows64 = avx2Rows(forwardRowsAVX2f64, backwardRowsAVX2f64)
		rows32 = avx2Rows(forwardRowsAVX2f32, backwardRowsAVX2f32)
	}
}

// avx2Rows wraps one plane's assembly bodies as row primitives.
func avx2Rows[F float32 | float64](
	forward func(dst *float64, rows, m int, x *float64, l *F, ns, bw int),
	backward func(acc *float64, bw, m int, v *float64, rows int, l *F, ns int),
) rowKernels[F] {
	return rowKernels[F]{
		forward: func(v []float64, m int, panel []F, ns, jb, je int) {
			if rows := rowExtent(len(v), m, len(panel), ns, jb, je, rowBlock); rows > 0 {
				forward(&v[je*m], rows, m, &v[jb*m], &panel[jb*ns+je], ns, je-jb)
			}
		},
		backward: func(acc, v []float64, m int, panel []F, ns, r0, r1 int) {
			// acc must hold one m-wide row per block column.
			if rows := rowExtent(len(v), m, len(panel), ns, r0, r1, len(acc)/m); rows > 0 {
				backward(&acc[0], r1-r0, m, &v[r1*m], rows, &panel[r0*ns+r1], ns)
			}
		},
	}
}

// cpuHasAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM state (CPUID leaves 1 and 7, XGETBV).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// rowExtent is the one bounds check of an assembly call: columns [c0, c1)
// of an ns-tall panel of length np, at most maxCols of them, applied to
// an ns×m buffer of length nv. It returns the number of rows beyond the
// block, ns-c1, and panics on a call the kernel can only make through a
// bug.
func rowExtent(nv, m, np, ns, c0, c1, maxCols int) int {
	if m < 1 || c0 < 0 || c1 <= c0 || c1-c0 > maxCols || c1 > ns || nv < ns*m || np < c1*ns {
		panic("native: row primitive called outside its buffers")
	}
	return ns - c1
}
