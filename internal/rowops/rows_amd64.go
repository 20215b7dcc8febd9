//go:build !purego

package rowops

// The AVX2 bodies of the row primitives (rows_amd64.s) and their start-up
// selection. The Go wrappers take the same slices as the portable bodies
// and check the extent the assembly will touch once per call; the
// assembly itself sees only pointers and lengths proven here.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func forwardRows1AVX2f64(dst *float64, rows int, x *float64, xs int, l *float64, ns, bw int)

//go:noescape
func forwardRows1AVX2f32(dst *float64, rows int, x *float64, xs int, l *float32, ns, bw int)

//go:noescape
func backwardRows1AVX2f64(acc *float64, bw int, v *float64, rows int, l *float64, ns int)

//go:noescape
func backwardRows1AVX2f32(acc *float64, bw int, v *float64, rows int, l *float32, ns int)

//go:noescape
func forwardPanelAVX2f64(v *float64, n, m int, l *float64, ns, pw int)

//go:noescape
func forwardPanelAVX2f32(v *float64, n, m int, l *float32, ns, pw int)

//go:noescape
func backwardBlockAVX2f64(acc, v *float64, n, m int, l *float64, ns, bw int)

//go:noescape
func backwardBlockAVX2f32(acc, v *float64, n, m int, l *float32, ns, bw int)

//go:noescape
func addAVX2f64(dst, src *float64, n int)

//go:noescape
func schurAVX2f64(dst *float64, ld, n int, p *float64, groups, quads int)

func init() {
	if cpuHasAVX2() {
		vectorISA = "avx2"
		F64 = Kernels[float64]{forwardAVX2f64, backwardAVX2f64, forwardPanelF64, backwardBlockF64}
		F32 = Kernels[float32]{forwardAVX2f32, backwardAVX2f32, forwardPanelF32, backwardBlockF32}
		Schur = schurAVX2
		Add = addAVX2
	}
}

// One plain wrapper per plane and primitive, so a primitive call is one
// direct call after the bounds check. Their size moves every function
// linked after this package: DESIGN §14 "Placement" says what to check
// after changing them.

func forwardAVX2f64(dst []float64, rows int, x []float64, xs int, l []float64, ns, bw int) {
	if inBounds(len(dst), len(x), len(l), rows, bw, Block, xs, ns) {
		forwardRows1AVX2f64(&dst[0], rows, &x[0], xs, &l[0], ns, bw)
	}
}

func forwardAVX2f32(dst []float64, rows int, x []float64, xs int, l []float32, ns, bw int) {
	if inBounds(len(dst), len(x), len(l), rows, bw, Block, xs, ns) {
		forwardRows1AVX2f32(&dst[0], rows, &x[0], xs, &l[0], ns, bw)
	}
}

// The Backward body keeps the block's partial sums in two YMM registers,
// hence bw ≤ Sums.

func backwardAVX2f64(acc []float64, bw int, v []float64, rows int, l []float64, ns int) {
	if inBounds(len(v), len(acc), len(l), rows, bw, Sums, 1, ns) {
		backwardRows1AVX2f64(&acc[0], bw, &v[0], rows, &l[0], ns)
	}
}

func backwardAVX2f32(acc []float64, bw int, v []float64, rows int, l []float32, ns int) {
	if inBounds(len(v), len(acc), len(l), rows, bw, Sums, 1, ns) {
		backwardRows1AVX2f32(&acc[0], bw, &v[0], rows, &l[0], ns)
	}
}

// The forward panel body reads a solved row's chunks whole, the lanes
// past its end from the next row on, so it needs m ≥ 2.

func forwardPanelF64(v []float64, n, m int, l []float64, ns, pw int) {
	panelBounds(len(v), len(l), n, m, 2, ns, pw, Panel)
	forwardPanelAVX2f64(&v[0], n, m, &l[0], ns, pw)
}

func forwardPanelF32(v []float64, n, m int, l []float32, ns, pw int) {
	panelBounds(len(v), len(l), n, m, 2, ns, pw, Panel)
	forwardPanelAVX2f32(&v[0], n, m, &l[0], ns, pw)
}

func backwardBlockF64(acc, v []float64, n, m int, l []float64, ns, bw int) {
	panelBounds(len(v), len(l), n, m, 1, ns, bw, min(Sums, len(acc)/max(m, 1)))
	backwardBlockAVX2f64(&acc[0], &v[0], n, m, &l[0], ns, bw)
}

func backwardBlockF32(acc, v []float64, n, m int, l []float32, ns, bw int) {
	panelBounds(len(v), len(l), n, m, 1, ns, bw, min(Sums, len(acc)/max(m, 1)))
	backwardBlockAVX2f32(&acc[0], &v[0], n, m, &l[0], ns, bw)
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

func addAVX2(dst, src []float64) {
	if len(src) < len(dst) {
		panic("rowops: Add called outside its buffers")
	}
	if len(dst) > 0 {
		addAVX2f64(&dst[0], &src[0], len(dst))
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

// inBounds is the one bounds check of a Forward or Backward call: rows
// entries of a buffer of length nr, against bw (at most maxBW) entries xs
// apart in a buffer of length nb and bw panel columns ns apart, each rows
// tall, in a buffer of length nl. It reports whether there is a row to
// work on, and panics on a call the callers can only make through a bug.
func inBounds(nr, nb, nl, rows, bw, maxBW, xs, ns int) bool {
	if rows <= 0 || bw < 1 || bw > maxBW || xs < 0 || ns < 0 ||
		nr < rows || nb < (bw-1)*xs+1 || nl < (bw-1)*ns+rows {
		if rows == 0 {
			return false
		}
		panic("rowops: row primitive called outside its buffers")
	}
	return true
}

// panelBounds is the one bounds check of a panel or block call: n ≥ w
// m-wide rows (m ≥ minM) in a buffer of length nv, against w (1..maxW)
// columns ns ≥ n apart, each n tall, in a buffer of length nl. It panics
// on a call the callers can only make through a bug.
func panelBounds(nv, nl, n, m, minM, ns, w, maxW int) {
	if w < 1 || w > maxW || n < w || m < minM || ns < n || nv < n*m || nl < (w-1)*ns+n {
		panic("rowops: panel primitive called outside its buffers")
	}
}
