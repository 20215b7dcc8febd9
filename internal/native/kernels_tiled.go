package native

import (
	"sptrsv/internal/chol"
)

// This file holds the tiled register-blocked sweep kernels. They process
// RHS columns in fixed tiles of tileW (4) with the four per-column
// accumulators in locals — in the generic kernels xj and dst both alias
// into the same arena buffer, so the compiler must re-load xj[c] after
// every dst write; with the tile values bound to locals they stay in
// registers across the whole row loop — plus a scalar tail for m mod 4
// columns. The tall variants additionally cache-block the below-diagonal
// rectangle into row strips (snShape.strip, sized via dist.AdaptiveBlock)
// so a tall panel is streamed once per tile instead of once per column.
//
// Bitwise identity (what lets these dispatch interchangeably with
// kernels.go, pinned by the dispatch property test and the simulator
// identity tests):
//
//   - RHS columns are independent: no operation ever mixes two columns,
//     so regrouping columns into tiles cannot reorder any single
//     column's FLOPs. Within a tile, column c still sees scale-then-
//     update in ascending-j order, exactly the generic kernel's order.
//   - Forward row strips: the diagonal t×t triangle runs first in the
//     legacy order (the scaled xj values depend only on triangle rows),
//     then the rectangle rows are swept strip-outer/column-inner — each
//     rectangle element still receives its updates in ascending-j order.
//   - Backward per-j accumulators subtracted immediately (instead of the
//     generic kernel's buffered block accumulator) are identical because
//     each partial sum reads only rows at or beyond the block end, which
//     the subtractions never touch — the same argument backwardSupernode1
//     already makes. The simulator's zero skip is preserved verbatim.
//   - Backward row strips partition each partial sum's row range; strips
//     ascend and rows ascend within a strip, so every accumulator still
//     sums in ascending row order with the zero skip intact.

// gatherForwardM accumulates finished children and the right-hand side
// into supernode s's buffer — the multi-RHS forward prologue shared by
// the generic and tiled kernels (bitwise-identical by construction).
func (sv *Solver) gatherForwardM(s, t, j0, m int, v []float64) {
	sym := sv.F.Sym
	for _, c := range sym.SChildren[s] {
		cv := sv.arena.bufs[c]
		tc := sym.Width(c)
		for i, pos := range sv.parentPos[c] {
			src := cv[(tc+i)*m : (tc+i+1)*m : (tc+i+1)*m]
			dst := v[pos*m : (pos+1)*m : (pos+1)*m]
			for k := range dst {
				dst[k] += src[k]
			}
		}
	}
	for j := 0; j < t; j++ {
		row := sv.cur.b.Row(j0 + j)
		dst := v[j*m : (j+1)*m : (j+1)*m]
		for k := range dst {
			dst[k] += row[k]
		}
	}
}

// gatherBackwardM pulls the finished parent's values into the below-
// triangle rows — the multi-RHS backward prologue shared by the generic
// and tiled kernels.
func (sv *Solver) gatherBackwardM(s, t, m int, v []float64) {
	sym := sv.F.Sym
	if par := sym.SParent[s]; par >= 0 {
		pv := sv.arena.bufs[par]
		for i, pos := range sv.parentPos[s] {
			copy(v[(t+i)*m:(t+i+1)*m], pv[pos*m:(pos+1)*m])
		}
	}
}

// scatterBackwardM copies the solved triangle rows into the solution
// block — the multi-RHS backward epilogue shared by the generic and
// tiled kernels.
func (sv *Solver) scatterBackwardM(j0, t, m int, v []float64) {
	for j := 0; j < t; j++ {
		copy(sv.cur.x.Row(j0+j), v[j*m:(j+1)*m])
	}
}

// forwardSupernodeTiled is the tiled multi-RHS forward-elimination task
// body: full tiles of tileW columns with register accumulators, then the
// scalar tail.
func forwardSupernodeTiled[F float32 | float64](sv *Solver, panels [][]F, s int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := panels[s]
	v := sv.arena.bufs[s]
	clear(v) // the task owns this buffer; accumulation below starts from zero
	sv.gatherForwardM(s, t, j0, m, v)
	c0 := 0
	for ; c0+tileW <= m; c0 += tileW {
		for j := 0; j < t; j++ {
			col := panel[j*ns : (j+1)*ns]
			piv := float64(col[j])
			if chol.BadPivot(piv) {
				return &BreakdownError{Supernode: s, Column: j0 + j, Pivot: piv}
			}
			inv := 1 / piv
			o := j*m + c0
			xj := v[o : o+tileW : o+tileW]
			x0 := xj[0] * inv
			x1 := xj[1] * inv
			x2 := xj[2] * inv
			x3 := xj[3] * inv
			xj[0], xj[1], xj[2], xj[3] = x0, x1, x2, x3
			for i := j + 1; i < ns; i++ {
				lij := float64(col[i])
				oi := i*m + c0
				vi := v[oi : oi+tileW : oi+tileW]
				vi[0] -= lij * x0
				vi[1] -= lij * x1
				vi[2] -= lij * x2
				vi[3] -= lij * x3
			}
		}
	}
	return forwardTailFrom(sv, panels, s, c0)
}

// forwardSupernodeTiledTall is forwardSupernodeTiled with the below-
// diagonal rectangle cache-blocked into row strips: the t×t triangle is
// solved first (the legacy order — the scaled values depend only on
// triangle rows), then each row strip is updated by all t columns while
// the strip is cache-resident.
func forwardSupernodeTiledTall[F float32 | float64](sv *Solver, panels [][]F, s int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := panels[s]
	v := sv.arena.bufs[s]
	clear(v) // the task owns this buffer; accumulation below starts from zero
	sv.gatherForwardM(s, t, j0, m, v)
	strip := sv.shape[s].strip
	c0 := 0
	for ; c0+tileW <= m; c0 += tileW {
		for j := 0; j < t; j++ {
			col := panel[j*ns : (j+1)*ns]
			piv := float64(col[j])
			if chol.BadPivot(piv) {
				return &BreakdownError{Supernode: s, Column: j0 + j, Pivot: piv}
			}
			inv := 1 / piv
			o := j*m + c0
			xj := v[o : o+tileW : o+tileW]
			x0 := xj[0] * inv
			x1 := xj[1] * inv
			x2 := xj[2] * inv
			x3 := xj[3] * inv
			xj[0], xj[1], xj[2], xj[3] = x0, x1, x2, x3
			for i := j + 1; i < t; i++ {
				lij := float64(col[i])
				oi := i*m + c0
				vi := v[oi : oi+tileW : oi+tileW]
				vi[0] -= lij * x0
				vi[1] -= lij * x1
				vi[2] -= lij * x2
				vi[3] -= lij * x3
			}
		}
		for r0 := t; r0 < ns; r0 += strip {
			r1 := r0 + strip
			if r1 > ns {
				r1 = ns
			}
			for j := 0; j < t; j++ {
				col := panel[j*ns : (j+1)*ns]
				o := j*m + c0
				xj := v[o : o+tileW : o+tileW]
				x0 := xj[0]
				x1 := xj[1]
				x2 := xj[2]
				x3 := xj[3]
				for i := r0; i < r1; i++ {
					lij := float64(col[i])
					oi := i*m + c0
					vi := v[oi : oi+tileW : oi+tileW]
					vi[0] -= lij * x0
					vi[1] -= lij * x1
					vi[2] -= lij * x2
					vi[3] -= lij * x3
				}
			}
		}
	}
	return forwardTailFrom(sv, panels, s, c0)
}

// forwardTailFrom runs the scalar forward sweep for RHS columns c0..m-1
// — the tail a tile width of 4 leaves behind (and the whole sweep when
// KernelTiled is forced at m < 4). One column at a time, column-strided:
// exactly the generic kernel's per-column operation sequence.
func forwardTailFrom[F float32 | float64](sv *Solver, panels [][]F, s, c0 int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := panels[s]
	v := sv.arena.bufs[s]
	for ; c0 < m; c0++ {
		for j := 0; j < t; j++ {
			col := panel[j*ns : (j+1)*ns]
			piv := float64(col[j])
			if chol.BadPivot(piv) {
				return &BreakdownError{Supernode: s, Column: j0 + j, Pivot: piv}
			}
			xj := v[j*m+c0] * (1 / piv)
			v[j*m+c0] = xj
			for i := j + 1; i < ns; i++ {
				v[i*m+c0] -= float64(col[i]) * xj
			}
		}
	}
	return nil
}

// backwardSupernodeTiled is the tiled multi-RHS back-substitution task
// body: the generic kernel's blocked structure (descending blocks,
// partial sums with the zero skip), with each block's per-column partial
// sums held in four registers and subtracted as soon as each row's sum
// completes.
func backwardSupernodeTiled[F float32 | float64](sv *Solver, panels [][]F, s int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := panels[s]
	v := sv.arena.bufs[s]
	sv.gatherBackwardM(s, t, m, v)
	bsz := sv.shape[s].bsz // the simulator's p=1 blocking
	tb := (t + bsz - 1) / bsz
	c0 := 0
	for ; c0+tileW <= m; c0 += tileW {
		for k := tb - 1; k >= 0; k-- {
			r0 := k * bsz
			r1 := r0 + bsz
			if r1 > t {
				r1 = t
			}
			bw := r1 - r0
			for j := 0; j < bw; j++ {
				col := panel[(r0+j)*ns : (r0+j+1)*ns]
				var a0, a1, a2, a3 float64
				for li := r1; li < ns; li++ {
					lij := float64(col[li])
					if lij == 0 {
						continue
					}
					oi := li*m + c0
					vi := v[oi : oi+tileW : oi+tileW]
					a0 += lij * vi[0]
					a1 += lij * vi[1]
					a2 += lij * vi[2]
					a3 += lij * vi[3]
				}
				o := (r0+j)*m + c0
				xj := v[o : o+tileW : o+tileW]
				xj[0] -= a0
				xj[1] -= a1
				xj[2] -= a2
				xj[3] -= a3
			}
			if err := backwardBlockSubstTile(sv, panels, s, j0, r0, bw, c0); err != nil {
				return err
			}
		}
	}
	if err := backwardTailFrom(sv, panels, s, c0); err != nil {
		return err
	}
	sv.scatterBackwardM(j0, t, m, v)
	return nil
}

// backwardSupernodeTiledTall is backwardSupernodeTiled with each block's
// partial-sum row range cache-blocked into row strips: the bw×tileW
// accumulator tile lives in worker w's arena scratch across strips
// (strips ascend and rows ascend within a strip, so each sum still
// accumulates in ascending row order), and one panel row strip updates
// all bw accumulators while it is cache-resident.
func backwardSupernodeTiledTall[F float32 | float64](sv *Solver, panels [][]F, s, w int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := panels[s]
	v := sv.arena.bufs[s]
	sv.gatherBackwardM(s, t, m, v)
	bsz := sv.shape[s].bsz // the simulator's p=1 blocking
	strip := sv.shape[s].strip
	tb := (t + bsz - 1) / bsz
	c0 := 0
	for ; c0+tileW <= m; c0 += tileW {
		for k := tb - 1; k >= 0; k-- {
			r0 := k * bsz
			r1 := r0 + bsz
			if r1 > t {
				r1 = t
			}
			bw := r1 - r0
			// bw*tileW <= b*m holds here because this loop requires m >= tileW.
			acc := sv.arena.scratch[w][: bw*tileW : bw*tileW]
			clear(acc)
			for lr0 := r1; lr0 < ns; lr0 += strip {
				lr1 := lr0 + strip
				if lr1 > ns {
					lr1 = ns
				}
				for j := 0; j < bw; j++ {
					col := panel[(r0+j)*ns : (r0+j+1)*ns]
					aj := acc[j*tileW : (j+1)*tileW : (j+1)*tileW]
					a0 := aj[0]
					a1 := aj[1]
					a2 := aj[2]
					a3 := aj[3]
					for li := lr0; li < lr1; li++ {
						lij := float64(col[li])
						if lij == 0 {
							continue
						}
						oi := li*m + c0
						vi := v[oi : oi+tileW : oi+tileW]
						a0 += lij * vi[0]
						a1 += lij * vi[1]
						a2 += lij * vi[2]
						a3 += lij * vi[3]
					}
					aj[0], aj[1], aj[2], aj[3] = a0, a1, a2, a3
				}
			}
			for j := 0; j < bw; j++ {
				o := (r0+j)*m + c0
				aj := acc[j*tileW : (j+1)*tileW : (j+1)*tileW]
				xj := v[o : o+tileW : o+tileW]
				xj[0] -= aj[0]
				xj[1] -= aj[1]
				xj[2] -= aj[2]
				xj[3] -= aj[3]
			}
			if err := backwardBlockSubstTile(sv, panels, s, j0, r0, bw, c0); err != nil {
				return err
			}
		}
	}
	if err := backwardTailFrom(sv, panels, s, c0); err != nil {
		return err
	}
	sv.scatterBackwardM(j0, t, m, v)
	return nil
}

// backwardBlockSubstTile runs the within-block back substitution for one
// tile of columns: descending rows, each row's four values corrected by
// the already-solved rows below it in the block, then scaled by the
// pivot reciprocal — the generic kernel's exact per-column sequence.
func backwardBlockSubstTile[F float32 | float64](sv *Solver, panels [][]F, s, j0, r0, bw, c0 int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	m := sv.cur.m
	panel := panels[s]
	v := sv.arena.bufs[s]
	for j := bw - 1; j >= 0; j-- {
		col := panel[(r0+j)*ns : (r0+j+1)*ns]
		o := (r0+j)*m + c0
		xj := v[o : o+tileW : o+tileW]
		x0 := xj[0]
		x1 := xj[1]
		x2 := xj[2]
		x3 := xj[3]
		for i := j + 1; i < bw; i++ {
			lij := float64(col[r0+i])
			oi := (r0+i)*m + c0
			xi := v[oi : oi+tileW : oi+tileW]
			x0 -= lij * xi[0]
			x1 -= lij * xi[1]
			x2 -= lij * xi[2]
			x3 -= lij * xi[3]
		}
		piv := float64(col[r0+j])
		if chol.BadPivot(piv) {
			return &BreakdownError{Supernode: s, Column: j0 + r0 + j, Pivot: piv}
		}
		inv := 1 / piv
		xj[0] = x0 * inv
		xj[1] = x1 * inv
		xj[2] = x2 * inv
		xj[3] = x3 * inv
	}
	return nil
}

// backwardTailFrom runs the scalar backward sweep for RHS columns
// c0..m-1: one column at a time on the strided layout, mirroring
// backwardSupernode1's register-accumulator structure (and therefore the
// generic kernel's per-element order). The caller scatters to x.
func backwardTailFrom[F float32 | float64](sv *Solver, panels [][]F, s, c0 int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := panels[s]
	v := sv.arena.bufs[s]
	bsz := sv.shape[s].bsz
	tb := (t + bsz - 1) / bsz
	for ; c0 < m; c0++ {
		for k := tb - 1; k >= 0; k-- {
			r0 := k * bsz
			r1 := r0 + bsz
			if r1 > t {
				r1 = t
			}
			bw := r1 - r0
			for j := 0; j < bw; j++ {
				col := panel[(r0+j)*ns : (r0+j+1)*ns]
				acc := 0.0
				for li := r1; li < ns; li++ {
					lij := float64(col[li])
					if lij == 0 {
						continue
					}
					acc += lij * v[li*m+c0]
				}
				v[(r0+j)*m+c0] -= acc
			}
			for j := bw - 1; j >= 0; j-- {
				col := panel[(r0+j)*ns : (r0+j+1)*ns]
				xj := v[(r0+j)*m+c0]
				for i := j + 1; i < bw; i++ {
					xj -= float64(col[r0+i]) * v[(r0+i)*m+c0]
				}
				piv := float64(col[r0+j])
				if chol.BadPivot(piv) {
					return &BreakdownError{Supernode: s, Column: j0 + r0 + j, Pivot: piv}
				}
				v[(r0+j)*m+c0] = xj * (1 / piv)
			}
		}
	}
	return nil
}
