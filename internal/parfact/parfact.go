// Package parfact implements the parallel multifrontal Cholesky
// factorization the paper builds on (Gupta, Karypis & Kumar, "Highly
// scalable parallel algorithms for sparse matrix factorization" — the
// paper's reference [4]): supernodes are assigned to processor subcubes
// by subtree-to-subcube mapping, and each frontal matrix is partitioned
// 2-D block-cyclic over a logical pr×pc grid of its subcube. Each
// supernode is processed by
//
//  1. assembling original-matrix entries and the children's distributed
//     Schur complements (a personalized all-to-all within the subcube),
//  2. a right-looking distributed partial Cholesky — per b-wide panel:
//     factor the diagonal block, broadcast it down its grid column,
//     TRSM the panel, broadcast panel pieces along grid rows, allgather
//     transposed pieces along grid columns, and update the local trailing
//     blocks,
//  3. leaving the factored panel in the 2-D layout (which package redist
//     later converts to the solvers' 1-D layout) and passing the local
//     Schur pieces up the tree.
//
// The factorization's communication volume per supernode is O(n·t/√q),
// giving the O(N·√p) overall overhead and O(p^1.5) isoefficiency of the
// table in the paper's Figure 5.
package parfact

import (
	"fmt"
	"math"

	"sptrsv/internal/chol"
	"sptrsv/internal/dist"
	"sptrsv/internal/machine"
	"sptrsv/internal/mapping"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

const (
	tagExtAdd = 8 << 28
	tagDiag   = 9 << 28
	tagPanelR = 10 << 28
	tagPanelC = 11 << 28
	tagSyncA  = 12 << 28
	tagSyncB  = 13 << 28
)

// Factor2D is the numeric factor in the factorization's native 2-D
// block-cyclic distribution.
type Factor2D struct {
	Sym *symbolic.Factor
	Asn *mapping.Assignment
	B   int

	// Local[r][s] holds rank r's part of supernode s's ns×t panel:
	// localRows×localCols column-major (lda=localRows), where rows are
	// distributed over the grid's pr rows and columns over its pc columns.
	Local [][][]float64
}

// Grids returns the logical grid shape used for a group of size q.
func Grids(q int) (pr, pc int) { return dist.GridShape(q) }

// BlockOf returns the per-supernode block size actually used: the
// preferred size B, shrunk so the supernode's rows cover all grid rows
// (see dist.AdaptiveBlock).
func (f *Factor2D) BlockOf(s int) int {
	pr, _ := Grids(f.Asn.FullGroups[s].Size())
	return dist.AdaptiveBlock(f.Sym.Height(s), pr, f.B)
}

// Stats reports the virtual-time cost of the factorization.
type Stats struct {
	Time     float64
	Flops    int64
	CommTime float64
}

// MFLOPS returns the aggregate MFLOPS rate.
func (s Stats) MFLOPS() float64 {
	if s.Time <= 0 {
		return 0
	}
	return float64(s.Flops) / s.Time / 1e6
}

// rowsPos builds, for each supernode, a map from global row index to
// front-local position, for the assembly of A's entries.
func rowsPos(sym *symbolic.Factor) []map[int]int {
	pos := make([]map[int]int, sym.NSuper)
	for s := 0; s < sym.NSuper; s++ {
		m := make(map[int]int, len(sym.Rows[s]))
		for k, r := range sym.Rows[s] {
			m[r] = k
		}
		pos[s] = m
	}
	return pos
}

// Factorize runs the parallel multifrontal Cholesky of the (postordered)
// matrix a on the given machine. It returns the factor in 2-D layout and
// the virtual-time statistics of the numerical factorization phase.
func Factorize(mach *machine.Machine, a *sparse.SymCSC, sym *symbolic.Factor,
	asn *mapping.Assignment, b int) (*Factor2D, Stats, error) {
	if mach.P != asn.P {
		return nil, Stats{}, fmt.Errorf("parfact: machine size %d != mapping size %d", mach.P, asn.P)
	}
	if b <= 0 {
		return nil, Stats{}, fmt.Errorf("parfact: block size %d", b)
	}
	f2d := &Factor2D{Sym: sym, Asn: asn, B: b, Local: make([][][]float64, asn.P)}
	for r := 0; r < asn.P; r++ {
		f2d.Local[r] = make([][]float64, sym.NSuper)
	}
	pos := rowsPos(sym)
	// pending[r][s]: extend-add triples produced by rank r while working
	// on supernode s, bucketed by parent-group index.
	pending := make([][][][]float64, asn.P)
	for r := 0; r < asn.P; r++ {
		pending[r] = make([][][]float64, sym.NSuper)
	}
	markClocks := make([]float64, asn.P)
	endClocks := make([]float64, asn.P)
	procErr := make([]error, asn.P)
	flops0, comm0 := mach.TotalFlops(), mach.TotalCommTime()
	all := machine.Range(0, asn.P)
	mach.Run(func(p *machine.Proc) {
		p.Barrier(all, tagSyncA)
		markClocks[p.Rank] = p.Clock()
		for _, s := range asn.ProcSupernodesFull(p.Rank) {
			if err := factorSupernode(p, a, sym, asn, b, s, pos, f2d, pending); err != nil {
				procErr[p.Rank] = err
				p.Abort() // release peers blocked on our messages
				return
			}
		}
		p.Barrier(all, tagSyncB)
		endClocks[p.Rank] = p.Clock()
	})
	for _, err := range procErr {
		if err != nil {
			return nil, Stats{}, err
		}
	}
	return f2d, Stats{
		Time:     machine.PhaseTime(markClocks, endClocks),
		Flops:    mach.TotalFlops() - flops0,
		CommTime: mach.TotalCommTime() - comm0,
	}, nil
}

// factorSupernode performs rank p's share of one supernode: assembly,
// distributed partial Cholesky, panel extraction, and Schur hand-off.
func factorSupernode(p *machine.Proc, a *sparse.SymCSC, sym *symbolic.Factor,
	asn *mapping.Assignment, b, s int, pos []map[int]int,
	f2d *Factor2D, pending [][][][]float64) error {

	g := asn.FullGroups[s]
	q := g.Size()
	idx := g.Index(p.Rank)
	pr, pc := Grids(q)
	r, c := idx/pc, idx%pc
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	b = dist.AdaptiveBlock(ns, pr, b) // per-supernode block size
	rowLay := dist.NewCyclic1D(ns, b, pr)
	colLay := dist.NewCyclic1D(ns, b, pc) // front columns span all ns
	lrF, lcF := rowLay.Count(r), colLay.Count(c)
	front := make([]float64, lrF*lcF) // column-major local front, lower part

	// --- assembly: original matrix entries ---
	var touched int64
	for j := j0; j < j0+t; j++ {
		fj := j - j0
		if colLay.Owner(fj) != c {
			continue
		}
		lj := colLay.Local(fj)
		for pp := a.ColPtr[j]; pp < a.ColPtr[j+1]; pp++ {
			fi, ok := pos[s][a.RowIdx[pp]]
			if !ok {
				return fmt.Errorf("parfact: entry (%d,%d) outside supernode %d", a.RowIdx[pp], j, s)
			}
			if rowLay.Owner(fi) != r {
				continue
			}
			front[lj*lrF+rowLay.Local(fi)] += a.Val[pp]
			touched++
		}
	}
	p.Charge(touched, touched)

	// --- assembly: extend-add of children's Schur pieces ---
	parts := make([][]float64, q)
	for _, ch := range sym.SChildren[s] {
		bucketed := pending[p.Rank][ch]
		if bucketed == nil {
			continue
		}
		for d := 0; d < q; d++ {
			parts[d] = append(parts[d], bucketed[d]...)
		}
		pending[p.Rank][ch] = nil
	}
	if q > 1 {
		recvd := p.AllToAllPersonalized(g, tagExtAdd+s, parts)
		parts = recvd
	}
	var added int64
	for _, triples := range parts {
		for k := 0; k+2 < len(triples); k += 3 {
			fi, fj := int(triples[k]), int(triples[k+1])
			front[colLay.Local(fj)*lrF+rowLay.Local(fi)] += triples[k+2]
			added++
		}
	}
	p.ChargeCopy(2 * added)
	p.Charge(0, added)

	// --- distributed right-looking partial Cholesky over b-wide panels ---
	myRowGroup := gridRowGroup(g, pr, pc, r)
	myColGroup := gridColGroup(g, pr, pc, c)
	tb := (t + b - 1) / b
	for kb := 0; kb < tb; kb++ {
		c0 := kb * b
		c1 := c0 + b
		if c1 > t {
			c1 = t
		}
		bw := c1 - c0
		ownR, ownC := kb%pr, kb%pc
		// 1. factor the diagonal block and broadcast it down the grid col
		var diag []float64
		if c == ownC {
			if r == ownR {
				diag = make([]float64, bw*bw)
				l0r, l0c := rowLay.Local(c0), colLay.Local(c0)
				for jj := 0; jj < bw; jj++ {
					for ii := jj; ii < bw; ii++ {
						diag[jj*bw+ii] = front[(l0c+jj)*lrF+(l0r+ii)]
					}
				}
				if err := denseCholInPlace(diag, bw); err != nil {
					return fmt.Errorf("parfact: supernode %d panel %d: %w", s, kb, err)
				}
				for jj := 0; jj < bw; jj++ {
					for ii := jj; ii < bw; ii++ {
						front[(l0c+jj)*lrF+(l0r+ii)] = diag[jj*bw+ii]
					}
				}
				p.Charge(int64(bw*bw), int64(bw*bw*bw)/3+int64(bw*bw))
			}
			diag = p.Bcast(myColGroup, ownR, tagDiag+s, diag)
			// 2. TRSM my panel rows (global ≥ c1): row_i ← row_i · L⁻ᵀ
			l0c := colLay.Local(c0)
			from := rowLay.CountBefore(r, c1)
			for li := from; li < lrF; li++ {
				for jj := 0; jj < bw; jj++ {
					v := front[(l0c+jj)*lrF+li]
					for kk := 0; kk < jj; kk++ {
						v -= front[(l0c+kk)*lrF+li] * diag[kk*bw+jj]
					}
					front[(l0c+jj)*lrF+li] = v / diag[jj*bw+jj]
				}
			}
			nrows := int64(lrF - from)
			p.Charge(nrows*int64(bw)+int64(bw*bw), nrows*int64(bw*bw))
		}
		// 3. broadcast panel pieces along grid rows: afterwards every
		// processor holds the panel entries of all its local rows ≥ c1.
		var myPanel []float64
		from := rowLay.CountBefore(r, c1)
		if c == ownC {
			l0c := colLay.Local(c0)
			myPanel = make([]float64, (lrF-from)*bw)
			for jj := 0; jj < bw; jj++ {
				for li := from; li < lrF; li++ {
					myPanel[(li-from)*bw+jj] = front[(l0c+jj)*lrF+li]
				}
			}
		}
		rowPanel := p.Bcast(myRowGroup, ownC, tagPanelR+s, myPanel)
		// 4. allgather, within my grid column, the panel rows whose block
		// column owner is my grid column (the transposed operand).
		contrib := selectColRows(rowPanel, rowLay, colLay, r, c, c1, bw, from)
		gathered := p.AllGather(myColGroup, tagPanelC+s, contrib)
		jPanel := indexColRows(gathered, rowLay, colLay, pr, c, c1, bw)
		// 5. update my local trailing lower blocks:
		// F(i,j) -= Σ_kk L(i,kk)·L(j,kk) for j ≥ c1 (mine), i ≥ j (mine)
		var entries int64
		for lj := colLay.CountBefore(c, c1); lj < lcF; lj++ {
			gj := colLay.Global(c, lj)
			if gj >= ns {
				break
			}
			lrow, ok := jPanel[gj]
			if !ok {
				return fmt.Errorf("parfact: missing transposed panel row %d", gj)
			}
			start := rowLay.CountBefore(r, gj)
			for li := start; li < lrF; li++ {
				ri := (li - from) * bw
				v := front[lj*lrF+li]
				for kk := 0; kk < bw; kk++ {
					v -= rowPanel[ri+kk] * lrow[kk]
				}
				front[lj*lrF+li] = v
				entries++
			}
		}
		p.Charge(entries, 2*entries*int64(bw))
	}

	// --- extract the factored ns×t panel into the 2-D factor layout ---
	panColLay := dist.NewCyclic1D(t, b, pc)
	lcP := panColLay.Count(c)
	panel := make([]float64, lrF*lcP)
	for lj := 0; lj < lcP; lj++ {
		gj := panColLay.Global(c, lj)
		copy(panel[lj*lrF:(lj+1)*lrF], front[colLay.Local(gj)*lrF:colLay.Local(gj)*lrF+lrF])
	}
	p.ChargeCopy(int64(2 * len(panel)))
	f2d.Local[p.Rank][s] = panel

	// --- bucket my Schur entries as extend-add triples for the parent ---
	parent := sym.SParent[s]
	if parent < 0 {
		return nil
	}
	pg := asn.FullGroups[parent]
	ppr, ppc := Grids(pg.Size())
	pb := dist.AdaptiveBlock(sym.Height(parent), ppr, f2d.B)
	pRowLay := dist.NewCyclic1D(sym.Height(parent), pb, ppr)
	pColLay := dist.NewCyclic1D(sym.Height(parent), pb, ppc)
	rel := sym.Rel(s) // front row g ≥ t lands on parent row rel[g−t]
	buckets := make([][]float64, pg.Size())
	var packed int64
	for lj := colLay.CountBefore(c, t); lj < lcF; lj++ {
		gj := colLay.Global(c, lj)
		pj := int(rel[gj-t])
		for li := rowLay.CountBefore(r, gj); li < lrF; li++ {
			gi := rowLay.Global(r, li)
			pi := int(rel[gi-t])
			d := pRowLay.Owner(pi)*ppc + pColLay.Owner(pj)
			buckets[d] = append(buckets[d], float64(pi), float64(pj), front[lj*lrF+li])
			packed++
		}
	}
	p.ChargeCopy(2 * packed)
	pending[p.Rank][s] = buckets
	return nil
}

// gridRowGroup returns the subgroup of g forming grid row r.
func gridRowGroup(g machine.Group, pr, pc, r int) machine.Group {
	ranks := make([]int, pc)
	for c := 0; c < pc; c++ {
		ranks[c] = g.Ranks[r*pc+c]
	}
	return machine.NewGroup(ranks)
}

// gridColGroup returns the subgroup of g forming grid column c.
func gridColGroup(g machine.Group, pr, pc, c int) machine.Group {
	ranks := make([]int, pr)
	for r := 0; r < pr; r++ {
		ranks[r] = g.Ranks[r*pc+c]
	}
	return machine.NewGroup(ranks)
}

// selectColRows extracts, from this processor's row-panel piece, the rows
// whose block-column owner equals grid column c (the rows needed as the
// transposed operand within this grid column).
func selectColRows(rowPanel []float64, rowLay, colLay dist.Cyclic1D, r, c, c1, bw, from int) []float64 {
	var out []float64
	lrF := rowLay.Count(r)
	for li := from; li < lrF; li++ {
		gi := rowLay.Global(r, li)
		if colLay.Owner(gi) == c {
			out = append(out, rowPanel[(li-from)*bw:(li-from+1)*bw]...)
		}
	}
	return out
}

// indexColRows rebuilds the global-row → panel-row map from the allgather
// result, mirroring selectColRows's deterministic enumeration order.
func indexColRows(gathered [][]float64, rowLay, colLay dist.Cyclic1D, pr, c, c1, bw int) map[int][]float64 {
	out := make(map[int][]float64)
	for rp := 0; rp < pr; rp++ {
		data := gathered[rp]
		k := 0
		lrF := rowLay.Count(rp)
		for li := rowLay.CountBefore(rp, c1); li < lrF; li++ {
			gi := rowLay.Global(rp, li)
			if colLay.Owner(gi) == c {
				out[gi] = data[k*bw : (k+1)*bw]
				k++
			}
		}
	}
	return out
}

// denseCholInPlace factors a bw×bw column-major lower matrix in place.
func denseCholInPlace(a []float64, n int) error {
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("parfact: non-positive pivot %g", d)
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			a[j*n+i] /= d
		}
		for k := j + 1; k < n; k++ {
			l := a[j*n+k]
			if l == 0 {
				continue
			}
			for i := k; i < n; i++ {
				a[k*n+i] -= a[j*n+i] * l
			}
		}
	}
	return nil
}

// Gathered reassembles the distributed 2-D factor into a sequential
// supernodal factor (testing aid).
func (f *Factor2D) Gathered() *chol.Factor {
	sym := f.Sym
	panels := make([][]float64, sym.NSuper)
	for s := 0; s < sym.NSuper; s++ {
		ns, t := sym.Height(s), sym.Width(s)
		g := f.Asn.FullGroups[s]
		pr, pc := Grids(g.Size())
		bs := f.BlockOf(s)
		rowLay := dist.NewCyclic1D(ns, bs, pr)
		colLay := dist.NewCyclic1D(t, bs, pc)
		panel := make([]float64, ns*t)
		for j := 0; j < t; j++ {
			cIdx := colLay.Owner(j)
			lj := colLay.Local(j)
			for i := 0; i < ns; i++ {
				rIdx := rowLay.Owner(i)
				rank := g.Ranks[rIdx*pc+cIdx]
				lrF := rowLay.Count(rIdx)
				panel[j*ns+i] = f.Local[rank][s][lj*lrF+rowLay.Local(i)]
			}
		}
		panels[s] = panel
	}
	return &chol.Factor{Sym: sym, Panels: panels}
}
