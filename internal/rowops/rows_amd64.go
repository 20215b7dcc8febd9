//go:build !purego

package rowops

// The AVX2 bodies of the row primitives (rows_amd64.s) and their start-up
// selection. The Go wrappers take the same slices as the portable bodies
// and check the extent the assembly will touch once per call; the
// assembly itself sees only pointers and lengths proven here.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func forwardRowsAVX2f64(dst *float64, rows, m int, x *float64, xs int, l *float64, ns, bw int)

//go:noescape
func forwardRowsAVX2f32(dst *float64, rows, m int, x *float64, xs int, l *float32, ns, bw int)

//go:noescape
func backwardRowsAVX2f64(acc *float64, bw, m int, v *float64, rows int, l *float64, ns int)

//go:noescape
func backwardRowsAVX2f32(acc *float64, bw, m int, v *float64, rows int, l *float32, ns int)

//go:noescape
func forwardRows1AVX2f64(dst *float64, rows int, x *float64, xs int, l *float64, ns, bw int)

//go:noescape
func forwardRows1AVX2f32(dst *float64, rows int, x *float64, xs int, l *float32, ns, bw int)

//go:noescape
func backwardRows1AVX2f64(acc *float64, bw int, v *float64, rows int, l *float64, ns int)

//go:noescape
func backwardRows1AVX2f32(acc *float64, bw int, v *float64, rows int, l *float32, ns int)

//go:noescape
func schurAVX2f64(dst *float64, ld, n int, p *float64, groups, quads int)

func init() {
	if cpuHasAVX2() {
		vectorISA = "avx2"
		F64 = Kernels[float64]{forwardAVX2f64, backwardAVX2f64}
		F32 = Kernels[float32]{forwardAVX2f32, backwardAVX2f32}
		Schur = schurAVX2
	}
}

// One plain wrapper per plane and primitive, so a primitive call is one
// direct call after the bounds check; at m = 1 it takes the m = 1 body.
// Their size moves every function linked after this package: DESIGN §14
// "A measurement hazard" says what to check after changing them.

func forwardAVX2f64(dst []float64, rows, m int, x []float64, xs int, l []float64, ns, bw int) {
	if inBounds(len(dst), len(x), len(l), rows, m, bw, Block, xs, ns) {
		if m == 1 {
			forwardRows1AVX2f64(&dst[0], rows, &x[0], xs, &l[0], ns, bw)
			return
		}
		forwardRowsAVX2f64(&dst[0], rows, m, &x[0], xs, &l[0], ns, bw)
	}
}

func forwardAVX2f32(dst []float64, rows, m int, x []float64, xs int, l []float32, ns, bw int) {
	if inBounds(len(dst), len(x), len(l), rows, m, bw, Block, xs, ns) {
		if m == 1 {
			forwardRows1AVX2f32(&dst[0], rows, &x[0], xs, &l[0], ns, bw)
			return
		}
		forwardRowsAVX2f32(&dst[0], rows, m, &x[0], xs, &l[0], ns, bw)
	}
}

// The backward wrappers' acc must hold one m-wide row per block column;
// that alone bounds bw. At m = 1 the assembly keeps up to maxBW1 partial
// sums in two YMM registers, so a wider block goes maxBW1 columns at a
// time.
const maxBW1 = 8

func backwardAVX2f64(acc []float64, bw, m int, v []float64, rows int, l []float64, ns int) {
	if inBounds(len(v), len(acc), len(l), rows, m, bw, len(acc), m, ns) {
		if m == 1 {
			for j := 0; j < bw; j += maxBW1 {
				backwardRows1AVX2f64(&acc[j], min(bw-j, maxBW1), &v[0], rows, &l[j*ns], ns)
			}
			return
		}
		backwardRowsAVX2f64(&acc[0], bw, m, &v[0], rows, &l[0], ns)
	}
}

func backwardAVX2f32(acc []float64, bw, m int, v []float64, rows int, l []float32, ns int) {
	if inBounds(len(v), len(acc), len(l), rows, m, bw, len(acc), m, ns) {
		if m == 1 {
			for j := 0; j < bw; j += maxBW1 {
				backwardRows1AVX2f32(&acc[j], min(bw-j, maxBW1), &v[0], rows, &l[j*ns], ns)
			}
			return
		}
		backwardRowsAVX2f32(&acc[0], bw, m, &v[0], rows, &l[0], ns)
	}
}

// schurAVX2 runs the assembly over the block's whole quads of Block
// columns and leaves the last n mod Block columns — a corner at most three
// rows tall — to the portable body.
func schurAVX2(dst []float64, ld, n int, p []float64, groups int) {
	if !schurShape(ld, n, groups) {
		return
	}
	if len(dst) < (n-1)*ld+n || len(p) < (Block*groups-1)*ld+n {
		panic("rowops: Schur called outside its buffers")
	}
	quads := n / Block
	if quads > 0 {
		schurAVX2f64(&dst[0], ld, n, &p[0], groups, quads)
	}
	if k := quads * Block; k < n {
		schurGo(dst[k*ld+k:], ld, n-k, p[k:], groups)
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

// inBounds is the one bounds check of an assembly call: rows m-wide rows
// of a buffer of length nr, against bw (at most maxBW) m-wide rows xs
// apart in a buffer of length nb and bw panel columns ns apart, each rows
// tall, in a buffer of length nl. It reports whether there is a row to
// work on, and panics on a call the callers can only make through a bug.
func inBounds(nr, nb, nl, rows, m, bw, maxBW, xs, ns int) bool {
	if rows <= 0 || m < 1 || bw < 1 || bw > maxBW || xs < 0 || ns < 0 ||
		nr < rows*m || nb < (bw-1)*xs+m || nl < (bw-1)*ns+rows {
		if rows == 0 {
			return false
		}
		panic("rowops: row primitive called outside its buffers")
	}
	return true
}
