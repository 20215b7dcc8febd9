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
// / solution buffers stay float64 in the shared arena. Go stencils one
// body per element type, so the loops carry no dictionary indirection,
// and the only rounding the float32 plane adds is the one storage rounding
// per factor entry, which is what the refinement contraction bound in
// internal/prec relies on.
//
// The sweeps spend their time in the primitives of internal/rowops
// (portable Go, or AVX2 assembly where the CPU has it): the arena buffer
// is row-major, so every panel element meets a contiguous m-wide row. At
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
// order.
//
// Pivot guards test the widened value — the number the sweep actually
// divides by. A pivot that underflows to zero in the demotion to float32
// is therefore caught here even though the float64 plane was fine.

// gatherForwardM accumulates finished children and the right-hand side
// into supernode s's buffer — the forward prologue. At m = 1 a child row
// is one entry, added in place rather than through a one-entry row loop.
func (sv *Solver) gatherForwardM(s, t, j0, m int, v []float64) {
	sym := sv.F.Sym
	for _, c := range sym.SChildren[s] {
		cv := sv.arena.bufs[c]
		tc := sym.Width(c)
		if m == 1 {
			for i, pos := range sv.parentPos[c] {
				v[pos] += cv[tc+i]
			}
			continue
		}
		for i, pos := range sv.parentPos[c] {
			src := cv[(tc+i)*m : (tc+i+1)*m : (tc+i+1)*m]
			dst := v[pos*m : (pos+1)*m : (pos+1)*m]
			for k := range dst {
				dst[k] += src[k]
			}
		}
	}
	// The supernode's t right-hand-side rows are contiguous in b.
	bd := sv.cur.b.Data[j0*m : (j0+t)*m]
	for k, b := range bd {
		v[k] += b
	}
}

// forwardSupernodeM is the forward-elimination task body at every RHS
// width. At m ≥ 2 the panel columns go in panels of rowops.Panel: the
// panel's pivots are checked, then one ForwardPanel call solves its
// triangle and applies it to every row below. A bad pivot ends the sweep
// with its column named, after the panel's columns before it. At m = 1
// the columns go in blocks of rowops.Block: the block's small triangle is
// solved here, then one Forward call applies the block to every row below
// it.
func forwardSupernodeM[F float32 | float64](sv *Solver, panels [][]F, rows *rowops.Kernels[F], s int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := panels[s]
	v := sv.arena.bufs[s]
	clear(v) // the task owns this buffer; accumulation below starts from zero
	sv.gatherForwardM(s, t, j0, m, v)
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
				rows.ForwardPanel(v[p0*m:], ns-p0, m, panel[p0*ns+p0:], ns, bad-p0)
			}
			if bad < pe {
				return &BreakdownError{Supernode: s, Column: j0 + bad, Pivot: float64(panel[bad*ns+bad])}
			}
		}
		return nil
	}
	for jb := 0; jb < t; jb += rowops.Block {
		je := min(jb+rowops.Block, t)
		for j := jb; j < je; j++ {
			col := panel[j*ns : (j+1)*ns]
			piv := float64(col[j])
			if chol.BadPivot(piv) {
				return &BreakdownError{Supernode: s, Column: j0 + j, Pivot: piv}
			}
			xj := v[j] * (1 / piv)
			v[j] = xj
			for i := j + 1; i < je; i++ {
				v[i] -= float64(col[i]) * xj
			}
		}
		rows.Forward(v[je:], ns-je, 1, v[jb:], 1, panel[jb*ns+je:], ns, je-jb)
	}
	return nil
}

// gatherBackwardM pulls the finished parent's values into the below-
// triangle rows — the backward prologue.
func (sv *Solver) gatherBackwardM(s, t, m int, v []float64) {
	sym := sv.F.Sym
	par := sym.SParent[s]
	if par < 0 {
		return
	}
	pv := sv.arena.bufs[par]
	if m == 1 {
		for i, pos := range sv.parentPos[s] {
			v[t+i] = pv[pos]
		}
		return
	}
	for i, pos := range sv.parentPos[s] {
		copy(v[(t+i)*m:(t+i+1)*m], pv[pos*m:(pos+1)*m])
	}
}

// scatterBackwardM copies the solved triangle rows into the solution
// block, where they are contiguous — the backward epilogue.
func (sv *Solver) scatterBackwardM(j0, t, m int, v []float64) {
	copy(sv.cur.x.Data[j0*m:(j0+t)*m], v[:t*m])
}

// backwardSupernodeM is the back-substitution task body at every RHS
// width. The blocks of sv.bsz[s] columns go in descending order. At m ≥ 2
// the block's pivots are checked, then one BackwardBlock call accumulates
// the partial sums of every row below the block (in worker w's arena
// scratch) and solves the block. At m = 1 one Backward call accumulates
// them and the small in-block back-solve runs here.
func backwardSupernodeM[F float32 | float64](sv *Solver, panels [][]F, rows *rowops.Kernels[F], s, w int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := panels[s]
	v := sv.arena.bufs[s]
	sv.gatherBackwardM(s, t, m, v)
	bsz := sv.bsz[s]
	for r0 := (t - 1) / bsz * bsz; r0 >= 0; r0 -= bsz {
		r1 := min(r0+bsz, t)
		bw := r1 - r0
		acc := sv.arena.scratch[w][: bw*m : bw*m]
		if m != 1 {
			for j := bw - 1; j >= 0; j-- {
				if piv := float64(panel[(r0+j)*ns+r0+j]); chol.BadPivot(piv) {
					return &BreakdownError{Supernode: s, Column: j0 + r0 + j, Pivot: piv}
				}
			}
			rows.BackwardBlock(acc, v[r0*m:], ns-r0, m, panel[r0*ns+r0:], ns, bw)
			continue
		}
		clear(acc)
		rows.Backward(acc, bw, 1, v[r1:], ns-r1, panel[r0*ns+r1:], ns)
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
	sv.scatterBackwardM(j0, t, m, v)
	return nil
}
