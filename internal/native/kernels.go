package native

import (
	"sptrsv/internal/chol"
)

// This file holds the flat and generic-width sweep kernels; the tiled
// ones are in kernels_tiled.go. Every kernel is generic over the factor
// element type F: storage is float32 or float64, arithmetic is always
// float64. Each panel element is widened as it is loaded — float64(col[i])
// is a no-op for F = float64 and a single CVTSS2SD on amd64 for
// F = float32 — and the right-hand-side / solution buffers stay float64
// in the shared arena. Go stencils one body per element type, so the
// loops carry no dictionary indirection; the sweeps are memory-bandwidth-
// bound, and the only rounding the float32 plane adds is the one storage
// rounding per factor entry, which is what the refinement contraction
// bound in internal/prec relies on.
//
// One specialization per RHS shape: the m==1 sweeps work on flat vectors
// with no inner RHS loop, the multi-RHS sweeps hoist their row subslices
// once per row with full capacity caps. Every variant performs exactly
// the same floating-point operations in the same order as the simulator's
// p=1 pipeline — children ascending, then RHS, then columns ascending
// with reciprocal scaling forward; blocked descending partial sums with
// the zero skip backward — so the solution stays bitwise identical across
// kernels, grain values, and worker counts.
//
// Pivot guards test the widened value — the number the sweep actually
// divides by. A pivot that underflows to zero in the demotion to float32
// is therefore caught here even though the float64 plane was fine.

// forwardSupernode1 is the single-RHS forward-elimination task body:
// gather finished children, add the right-hand side, run the trapezoid
// sweep — all on flat vectors.
func forwardSupernode1[F float32 | float64](sv *Solver, panels [][]F, s int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	panel := panels[s]
	v := sv.arena.bufs[s]
	clear(v) // the task owns this buffer; accumulation below starts from zero
	for _, c := range sym.SChildren[s] {
		cv := sv.arena.bufs[c]
		tc := sym.Width(c)
		for i, pos := range sv.parentPos[c] {
			v[pos] += cv[tc+i]
		}
	}
	bd := sv.cur.b.Data
	for j := 0; j < t; j++ {
		v[j] += bd[j0+j]
	}
	for j := 0; j < t; j++ {
		col := panel[j*ns : (j+1)*ns]
		piv := float64(col[j])
		if chol.BadPivot(piv) {
			return &BreakdownError{Supernode: s, Column: j0 + j, Pivot: piv}
		}
		xj := v[j] * (1 / piv)
		v[j] = xj
		for i := j + 1; i < ns; i++ {
			v[i] -= float64(col[i]) * xj
		}
	}
	return nil
}

// forwardSupernodeM is the multi-RHS forward-elimination task body, with
// row subslices hoisted out of the inner RHS loops.
func forwardSupernodeM[F float32 | float64](sv *Solver, panels [][]F, s int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := panels[s]
	v := sv.arena.bufs[s]
	clear(v) // the task owns this buffer; accumulation below starts from zero
	sv.gatherForwardM(s, t, j0, m, v)
	for j := 0; j < t; j++ {
		col := panel[j*ns : (j+1)*ns]
		xj := v[j*m : (j+1)*m : (j+1)*m]
		piv := float64(col[j])
		if chol.BadPivot(piv) {
			return &BreakdownError{Supernode: s, Column: j0 + j, Pivot: piv}
		}
		inv := 1 / piv
		for c := range xj {
			xj[c] *= inv
		}
		for i := j + 1; i < ns; i++ {
			lij := float64(col[i])
			dst := v[i*m : (i+1)*m : (i+1)*m]
			for c := range dst {
				dst[c] -= lij * xj[c]
			}
		}
	}
	return nil
}

// backwardSupernode1 is the single-RHS back-substitution task body. The
// blocked structure (width, descending block order, per-block partial
// sums with the simulator's zero skip) is the generic kernel's; with one
// RHS the partial sum lives in a register, so no accumulator buffer is
// needed — each v[r0+j] subtraction reads only rows at or beyond the
// block end, which later scaling never touches, keeping the operation
// order per element identical to the buffered variant.
func backwardSupernode1[F float32 | float64](sv *Solver, panels [][]F, s int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	panel := panels[s]
	v := sv.arena.bufs[s]
	if par := sym.SParent[s]; par >= 0 {
		pv := sv.arena.bufs[par]
		for i, pos := range sv.parentPos[s] {
			v[t+i] = pv[pos]
		}
	}
	bsz := sv.shape[s].bsz // the simulator's p=1 blocking, hoisted to NewSolver
	tb := (t + bsz - 1) / bsz
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
				acc += lij * v[li]
			}
			v[r0+j] -= acc
		}
		for j := bw - 1; j >= 0; j-- {
			col := panel[(r0+j)*ns : (r0+j+1)*ns]
			xj := v[r0+j]
			for i := j + 1; i < bw; i++ {
				xj -= float64(col[r0+i]) * v[r0+i]
			}
			piv := float64(col[r0+j])
			if chol.BadPivot(piv) {
				return &BreakdownError{Supernode: s, Column: j0 + r0 + j, Pivot: piv}
			}
			v[r0+j] = xj * (1 / piv)
		}
	}
	xd := sv.cur.x.Data
	for j := 0; j < t; j++ {
		xd[j0+j] = v[j]
	}
	return nil
}

// backwardSupernodeM is the multi-RHS back-substitution task body. The
// per-block partial-sum accumulator comes from worker w's arena scratch
// instead of a per-block make — the allocation that used to sit inside
// the innermost scheduling unit.
func backwardSupernodeM[F float32 | float64](sv *Solver, panels [][]F, s, w int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := panels[s]
	v := sv.arena.bufs[s]
	sv.gatherBackwardM(s, t, m, v)
	bsz := sv.shape[s].bsz // the simulator's p=1 blocking, hoisted to NewSolver
	tb := (t + bsz - 1) / bsz
	for k := tb - 1; k >= 0; k-- {
		r0 := k * bsz
		r1 := r0 + bsz
		if r1 > t {
			r1 = t
		}
		bw := r1 - r0
		acc := sv.arena.scratch[w][: bw*m : bw*m]
		clear(acc)
		for j := 0; j < bw; j++ {
			col := panel[(r0+j)*ns : (r0+j+1)*ns]
			aj := acc[j*m : (j+1)*m : (j+1)*m]
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
		xk := v[r0*m : r1*m]
		for i := range acc {
			xk[i] -= acc[i]
		}
		for j := bw - 1; j >= 0; j-- {
			col := panel[(r0+j)*ns : (r0+j+1)*ns]
			xj := xk[j*m : (j+1)*m : (j+1)*m]
			for i := j + 1; i < bw; i++ {
				lij := float64(col[r0+i])
				xi := xk[i*m : (i+1)*m : (i+1)*m]
				for c := range xj {
					xj[c] -= lij * xi[c]
				}
			}
			piv := float64(col[r0+j])
			if chol.BadPivot(piv) {
				return &BreakdownError{Supernode: s, Column: j0 + r0 + j, Pivot: piv}
			}
			inv := 1 / piv
			for c := range xj {
				xj[c] *= inv
			}
		}
	}
	sv.scatterBackwardM(j0, t, m, v)
	return nil
}
