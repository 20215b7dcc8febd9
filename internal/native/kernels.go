package native

import (
	"sptrsv/internal/chol"
	"sptrsv/internal/rowops"
)

// This file holds the sweep kernel of each direction, one for every RHS
// width. Both are generic over the factor element type F: storage is
// float32 or float64, arithmetic is always float64. Each panel element is
// widened as it is loaded — float64(col[i]) is a no-op for F = float64
// and a single CVTSS2SD on amd64 for F = float32 — and the right-hand-side
// / solution rows stay float64 in the worker's front, the update stack
// and the solution block. Go stencils one body per element type, so the
// loops carry no dictionary indirection, and the only rounding the float32
// plane adds is the one storage rounding per factor entry, which is what
// the refinement contraction bound in internal/prec relies on.
//
// A supernode's sweep runs in the front of the worker executing it: its
// Height rows, row-major, assembled there before the sweep and stored
// away after it (see arena.go). A supernode split into RHS-lane windows
// (grain.go) runs once per window, each over its own lanes. Forward assembles its children's updates
// and b, and leaves y in x and its update on the stack; backward loads y
// and its ancestors' answers from x, and leaves its answer in x.
//
// The sweeps spend their time in the primitives of internal/rowops
// (portable Go, or AVX2 assembly where the CPU has it): the front is
// row-major, so every panel element meets a contiguous m-wide row. At
// m ≥ 2 a sweep step is one call — a panel forward, a partial-sum block
// backward — and the Go code keeps only the gathers, the pivot guard and
// the loop over panels or blocks. At m = 1, where a row is one entry, the
// small triangles stay in Go and the calls take the rows below them.
// Every path performs exactly the same floating-point operations in the
// same per-entry order as the simulator's p=1 pipeline — children
// ascending, then RHS, then columns ascending with reciprocal scaling
// forward; blocked descending partial sums with the zero skip backward —
// so the solution stays bitwise identical across RHS widths, row-primitive
// bodies, grain values, and worker counts. Blocking only regroups: a row
// below a forward block still receives its updates in ascending column
// order, and a backward partial sum still adds its rows in ascending row
// order. Moving rows between the front, the stack and x copies them bit
// for bit.
//
// Pivot guards test the widened value — the number the sweep actually
// divides by. A pivot that underflows to zero in the demotion to float32
// is therefore caught here even though the float64 plane was fine.

// shortCopy is the longest run copyShort moves in a loop rather than a
// memmove call: the triangles and updates of the narrow supernodes near
// the leaves are a few entries long at small widths, where the call costs
// more than the copy.
const shortCopy = 16

// copyShort is copy(dst, src) for runs that are often a few entries long.
func copyShort(dst, src []float64) {
	if len(src) > shortCopy {
		copy(dst, src)
		return
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = v
	}
}

// finite reports whether every entry of v is finite: v·0 is ±0 for a
// finite v and NaN otherwise, and a NaN survives every sum. Four
// accumulators keep the loop off the adder's latency.
func finite(v []float64) bool {
	var z0, z1, z2, z3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		w := v[i : i+4 : i+4]
		z0 += w[0] * 0
		z1 += w[1] * 0
		z2 += w[2] * 0
		z3 += w[3] * 0
	}
	for ; i < len(v); i++ {
		z0 += v[i] * 0
	}
	return z0+z1+z2+z3 == 0
}

// A supernode swept over the lane window [k0, k1) of an m-wide solve
// holds mw = k1−k0 lanes per row in its worker's front, rows mw apart,
// while the update stack, b and x keep rows m apart. getRows, putRows and
// addRows move n rows between the two layouts; a window of the whole width
// has contiguous rows on both sides and moves them in one call.

// getRows copies n rows of src, m apart from lane k0 on, into n
// contiguous mw-wide rows of dst.
func getRows(dst, src []float64, n, m, k0, mw int) {
	if mw == m {
		copyShort(dst[:n*m], src[:n*m])
		return
	}
	for i := 0; i < n; i++ {
		copy(dst[i*mw:(i+1)*mw], src[i*m+k0:])
	}
}

// putRows copies n contiguous mw-wide rows of src into dst's rows, m
// apart from lane k0 on.
func putRows(dst, src []float64, n, m, k0, mw int) {
	if mw == m {
		copyShort(dst[:n*m], src[:n*m])
		return
	}
	for i := 0; i < n; i++ {
		copy(dst[i*m+k0:i*m+k0+mw], src[i*mw:])
	}
}

// addRows adds n rows of src, m apart from lane k0 on, into n contiguous
// mw-wide rows of dst, with rowops.Add.
func addRows(dst, src []float64, n, m, k0, mw int) {
	if mw == m {
		rowops.Add(dst[:n*m], src)
		return
	}
	for i := 0; i < n; i++ {
		rowops.Add(dst[i*mw:(i+1)*mw], src[i*m+k0:])
	}
}

// gatherForwardM accumulates the finished children's updates, popped
// from the stack, and the right-hand side into supernode s's front v over
// the lane window [k0, k0+mw) — the forward prologue. At m ≥ 2 a run of
// child rows that land on consecutive front rows is one addRows call. At
// m = 1 a child row is one entry, added in place rather than through a
// one-entry row loop.
func (sv *Solver) gatherForwardM(s, t, j0, m, k0, mw int, v []float64) {
	sym := sv.F.Sym
	for _, c := range sym.SChildren[s] {
		pos := sym.Rel(c)
		cu := sv.arena.upd[sv.updOff[c]*m:][:len(pos)*m]
		if m == 1 {
			for i, p := range pos {
				v[p] += cu[i]
			}
			continue
		}
		for i := 0; i < len(pos); {
			p, k := pos[i], i+1
			for k < len(pos) && pos[k] == p+int32(k-i) {
				k++
			}
			addRows(v[int(p)*mw:], cu[i*m:], k-i, m, k0, mw)
			i = k
		}
	}
	// The supernode's t right-hand-side rows are contiguous in b.
	bd := sv.cur.b.Data[j0*m : (j0+t)*m]
	if m == 1 {
		for k, b := range bd {
			v[k] += b
		}
		return
	}
	addRows(v, bd, t, m, k0, mw)
}

// forwardSupernodeM is the forward-elimination task body at every RHS
// width, over the lane window [k0, k1) in worker w's front; a supernode
// that is not split sweeps the window [0, m). At m ≥ 2 the panel columns
// go in panels of rowops.Panel: the panel's pivots are checked, then one
// ForwardPanel call solves its triangle and applies it to every row
// below. A bad pivot ends the sweep with its column named, after the
// panel's columns before it, and leaves the front as it stands. At m = 1 the columns go in
// blocks of rowops.Block: the block's small triangle is solved here, each
// y entry stored into x as it is solved, then one Forward call applies the
// block to every row below it. The epilogue stores the solved triangle
// rows y into the solution block, where backward reads them back, and
// pushes the below rows onto the update stack for the parent.
func forwardSupernodeM[F float32 | float64](sv *Solver, panels [][]F, rows *rowops.Kernels[F], s, w, k0, k1 int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m, mw := sv.cur.m, k1-k0
	panel := panels[s]
	v := sv.arena.fronts[w][: ns*mw : ns*mw]
	clear(v) // accumulation below starts from zero
	sv.gatherForwardM(s, t, j0, m, k0, mw, v)
	upd := sv.arena.upd[sv.updOff[s]*m:]
	if m != 1 {
		for p0 := 0; p0 < t; p0 += rowops.Panel {
			pe := min(p0+rowops.Panel, t)
			bad := p0
			for bad < pe && !chol.BadPivot(float64(panel[bad*ns+bad])) {
				bad++
			}
			// A bad pivot ends the panel before its column, which is left
			// as the column-by-column loop leaves it: updated, unscaled.
			if bad > p0 {
				rows.ForwardPanel(v[p0*mw:], ns-p0, mw, panel[p0*ns+p0:], ns, bad-p0)
			}
			if bad < pe {
				return &BreakdownError{Supernode: s, Column: j0 + bad, Pivot: float64(panel[bad*ns+bad])}
			}
		}
		putRows(sv.cur.x.Data[j0*m:], v, t, m, k0, mw)
		putRows(upd, v[t*mw:], ns-t, m, k0, mw)
		return nil
	}
	y := sv.cur.x.Data[j0 : j0+t]
	for jb := 0; jb < t; jb += rowops.Block {
		je := min(jb+rowops.Block, t)
		for j := jb; j < je; j++ {
			col := panel[j*ns : (j+1)*ns]
			piv := float64(col[j])
			if chol.BadPivot(piv) {
				return &BreakdownError{Supernode: s, Column: j0 + j, Pivot: piv}
			}
			xj := v[j] * (1 / piv)
			v[j], y[j] = xj, xj
			for i := j + 1; i < je; i++ {
				v[i] -= float64(col[i]) * xj
			}
		}
		rows.Forward(v[je:], ns-je, v[jb:], 1, panel[jb*ns+je:], ns, je-jb)
	}
	copyShort(upd[:ns-t], v[t:])
	return nil
}

// gatherBackwardM loads supernode s's rows from the solution block into
// its front v over the lane window [k0, k0+mw) — the backward prologue:
// the triangle rows y its forward task stored there, and the below rows
// Rows[s][t:], where every ancestor has already stored its answer. A run
// of consecutive rows is one getRows call.
func (sv *Solver) gatherBackwardM(s, t, j0, m, k0, mw int, v []float64) {
	x := sv.cur.x.Data
	getRows(v, x[j0*m:], t, m, k0, mw)
	below := sv.F.Sym.Rows[s][t:]
	if m == 1 {
		v = v[t : t+len(below)]
		for i, r := range below {
			v[i] = x[r]
		}
		return
	}
	for i := 0; i < len(below); {
		r, k := below[i], i+1
		for k < len(below) && below[k] == r+k-i {
			k++
		}
		getRows(v[(t+i)*mw:], x[r*m:], k-i, m, k0, mw)
		i = k
	}
}

// storeBackwardM stores the solved triangle rows of the lane window
// [k0, k0+mw) into the solution block — the backward epilogue — and
// checks them while they are hot: a non-finite answer raises the solve's
// flag, and SolveInto then runs the serial scan that names the lowest
// such entry.
func (sv *Solver) storeBackwardM(j0, t, m, k0, mw int, v []float64) {
	y := v[:t*mw]
	dst := sv.cur.x.Data[j0*m : (j0+t)*m]
	ok := true
	if len(y) > shortCopy || mw != m {
		putRows(dst, y, t, m, k0, mw)
		ok = finite(y)
	} else {
		// One pass: y·0 is ±0 for a finite y (see finite).
		var z float64
		for i, e := range y {
			dst[i] = e
			z += e * 0
		}
		ok = z == 0
	}
	if !ok {
		sv.cur.nonFinite.Store(true)
	}
}

// backwardSupernodeM is the back-substitution task body at every RHS
// width, over the lane window [k0, k1) in worker w's front. The blocks of
// sv.bsz[s] columns go in descending order. At m ≥ 2 the block's pivots are checked, then one
// BackwardBlock call accumulates the partial sums of every row below the
// block (in worker w's arena scratch) and solves the block. At m = 1 one
// Backward call accumulates them and the small in-block back-solve runs
// here.
func backwardSupernodeM[F float32 | float64](sv *Solver, panels [][]F, rows *rowops.Kernels[F], s, w, k0, k1 int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m, mw := sv.cur.m, k1-k0
	panel := panels[s]
	v := sv.arena.fronts[w][: ns*mw : ns*mw]
	sv.gatherBackwardM(s, t, j0, m, k0, mw, v)
	bsz := sv.bsz[s]
	for r0 := (t - 1) / bsz * bsz; r0 >= 0; r0 -= bsz {
		r1 := min(r0+bsz, t)
		bw := r1 - r0
		acc := sv.arena.scratch[w][: bw*mw : bw*mw]
		if m != 1 {
			for j := bw - 1; j >= 0; j-- {
				if piv := float64(panel[(r0+j)*ns+r0+j]); chol.BadPivot(piv) {
					return &BreakdownError{Supernode: s, Column: j0 + r0 + j, Pivot: piv}
				}
			}
			rows.BackwardBlock(acc, v[r0*mw:], ns-r0, mw, panel[r0*ns+r0:], ns, bw)
			continue
		}
		clear(acc)
		rows.Backward(acc, bw, v[r1:], ns-r1, panel[r0*ns+r1:], ns)
		xk := v[r0:r1]
		for i := range acc {
			xk[i] -= acc[i]
		}
		for j := bw - 1; j >= 0; j-- {
			col := panel[(r0+j)*ns : (r0+j+1)*ns]
			piv := float64(col[r0+j])
			if chol.BadPivot(piv) {
				return &BreakdownError{Supernode: s, Column: j0 + r0 + j, Pivot: piv}
			}
			xj := xk[j]
			for i := j + 1; i < bw; i++ {
				xj -= float64(col[r0+i]) * xk[i]
			}
			xk[j] = xj * (1 / piv)
		}
	}
	sv.storeBackwardM(j0, t, m, k0, mw, v)
	return nil
}
