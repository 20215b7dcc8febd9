// Package core implements the paper's primary contribution: parallel
// supernodal forward elimination and backward substitution for sparse
// triangular systems L·Y = B and Lᵀ·X = Y on a distributed-memory
// machine.
//
// The factor is distributed by the subtree-to-subcube mapping: a supernode
// at level l of the elimination tree is shared by p/2^l processors, with
// its dense n×t trapezoid partitioned 1-D block-cyclic by rows (block
// size b). Because the column-wise partitioning of the t×n trapezoid of
// U = Lᵀ coincides with the row-wise partitioning of L's trapezoid, one
// distribution serves both sweeps, exactly as in the paper.
//
// Forward elimination processes supernodes bottom-up with a pipelined
// fan-out over each supernode's processor ring (the paper's Figure 3;
// both column-priority and row-priority variants are provided); backward
// substitution processes them top-down with a pipelined fan-in (Figure 4).
// Between a child and its parent supernode, right-hand-side contributions
// (forward) and solution values (backward) are exchanged with
// personalized point-to-point messages whose pattern is precomputed from
// the symbolic structure.
package core

import (
	"fmt"

	"sptrsv/internal/chol"
	"sptrsv/internal/dist"
	"sptrsv/internal/mapping"
	"sptrsv/internal/symbolic"
)

// Tag spaces for the message streams of the solver. Tags only need to be
// unique per concurrently-active stream between one processor pair; the
// machine's tag matching is FIFO within a tag.
const (
	tagFwdPipe = 1 << 28
	tagBwdPipe = 2 << 28
	tagFwdXfer = 3 << 28
	tagBwdXfer = 4 << 28
)

func fwdPipeTag(s int) int { return tagFwdPipe + s }
func bwdPipeTag(s int) int { return tagBwdPipe + s }
func fwdXferTag(c int) int { return tagFwdXfer + c }
func bwdXferTag(c int) int { return tagBwdXfer + c }

// Options configure the parallel triangular solvers.
type Options struct {
	// B is the block size of the block-cyclic partitioning (paper's b).
	B int
	// RowPriority selects the row-priority pipelined variant of forward
	// elimination (paper Fig. 3b); the default is column-priority (3c).
	RowPriority bool
}

// DefaultOptions returns the options used by the experiments: b = 8,
// column-priority.
func DefaultOptions() Options { return Options{B: 8} }

// DistFactor is the numeric factor distributed for triangular solution:
// for each supernode s, processor group Asn.Groups[s] holds the n×t
// trapezoid partitioned 1-D block-cyclic by rows with block size B.
type DistFactor struct {
	Sym *symbolic.Factor
	Asn *mapping.Assignment
	B   int

	// Layouts[s] is the row layout of supernode s (N=Height(s),
	// Q=group size).
	Layouts []dist.Cyclic1D

	// Local[r][s] is the local part of supernode s on rank r: a
	// localRows×Width(s) column-major panel (lda = localRows), or nil if
	// r is not in the supernode's group.
	Local [][][]float64
}

// NewDistFactorShape allocates a DistFactor with layouts and zeroed local
// panels for the given mapping and block size.
func NewDistFactorShape(sym *symbolic.Factor, asn *mapping.Assignment, b int) *DistFactor {
	if b <= 0 {
		panic("core: block size must be positive")
	}
	df := &DistFactor{
		Sym:     sym,
		Asn:     asn,
		B:       b,
		Layouts: make([]dist.Cyclic1D, sym.NSuper),
		Local:   make([][][]float64, asn.P),
	}
	for r := 0; r < asn.P; r++ {
		df.Local[r] = make([][]float64, sym.NSuper)
	}
	for s := 0; s < sym.NSuper; s++ {
		q := asn.Groups[s].Size()
		bs := dist.AdaptiveBlock(sym.Height(s), q, b)
		df.Layouts[s] = dist.NewCyclic1D(sym.Height(s), bs, q)
		t := sym.Width(s)
		for idx, r := range asn.Groups[s].Ranks {
			lr := df.Layouts[s].Count(idx)
			df.Local[r][s] = make([]float64, lr*t)
		}
	}
	return df
}

// DistributeRows scatters a sequential factor into the 1-D row-block-
// cyclic distribution directly (bypassing the 2-D factorization layout;
// package redist performs the paper's 2-D→1-D conversion).
func DistributeRows(f *chol.Factor, asn *mapping.Assignment, b int) *DistFactor {
	sym := f.Sym
	df := NewDistFactorShape(sym, asn, b)
	for s := 0; s < sym.NSuper; s++ {
		lay := df.Layouts[s]
		ns := sym.Height(s)
		t := sym.Width(s)
		panel := f.Panels[s]
		for k := 0; k < ns; k++ {
			idx := lay.Owner(k)
			r := asn.Groups[s].Ranks[idx]
			lk := lay.Local(k)
			loc := df.Local[r][s]
			lr := lay.Count(idx)
			for j := 0; j < t; j++ {
				loc[j*lr+lk] = panel[j*ns+k]
			}
		}
	}
	return df
}

// Gathered reassembles the distributed factor into a sequential one
// (testing aid; inverse of DistributeRows).
func (df *DistFactor) Gathered() *chol.Factor {
	sym := df.Sym
	panels := make([][]float64, sym.NSuper)
	for s := 0; s < sym.NSuper; s++ {
		ns, t := sym.Height(s), sym.Width(s)
		lay := df.Layouts[s]
		panel := make([]float64, ns*t)
		for k := 0; k < ns; k++ {
			idx := lay.Owner(k)
			r := df.Asn.Groups[s].Ranks[idx]
			lk := lay.Local(k)
			lr := lay.Count(idx)
			loc := df.Local[r][s]
			for j := 0; j < t; j++ {
				panel[j*ns+k] = loc[j*lr+lk]
			}
		}
		panels[s] = panel
	}
	return &chol.Factor{Sym: sym, Panels: panels}
}

// Validate checks the shape invariants of the distributed factor.
func (df *DistFactor) Validate() error {
	sym := df.Sym
	for s := 0; s < sym.NSuper; s++ {
		g := df.Asn.Groups[s]
		if df.Layouts[s].N != sym.Height(s) || df.Layouts[s].Q != g.Size() {
			return fmt.Errorf("core: supernode %d layout mismatch", s)
		}
		for idx, r := range g.Ranks {
			want := df.Layouts[s].Count(idx) * sym.Width(s)
			if len(df.Local[r][s]) != want {
				return fmt.Errorf("core: supernode %d rank %d local size %d, want %d",
					s, r, len(df.Local[r][s]), want)
			}
		}
	}
	return nil
}

// sendPart describes one child→parent message from one source rank: the
// child-local row indices to read and the destination rank.
type sendPart struct {
	dst         int
	childLocals []int
}

// recvPart describes one expected child→parent message on the parent
// side: the source rank and the parent-local row indices to update.
type recvPart struct {
	src          int
	parentLocals []int
}

// xferPlan holds the child→parent exchange pattern of one supernode.
// Forward elimination sends child below-row values up; backward
// substitution sends parent solution values down along the reversed
// pattern. selfChildLocals/selfParentLocals describe the message-free
// local copies for rows whose owner coincides on both sides.
type xferPlan struct {
	sends [][]sendPart       // indexed by child group index; dst ascending
	recvs map[int][]recvPart // parent rank -> parts, src ascending

	selfChildLocals  map[int][]int
	selfParentLocals map[int][]int
}

// buildPlans computes the exchange plan of every non-root supernode.
func buildPlans(df *DistFactor) []*xferPlan {
	sym := df.Sym
	plans := make([]*xferPlan, sym.NSuper)
	for c := 0; c < sym.NSuper; c++ {
		s := sym.SParent[c]
		if s < 0 {
			continue
		}
		gc, gp := df.Asn.Groups[c], df.Asn.Groups[s]
		layC, layP := df.Layouts[c], df.Layouts[s]
		tc := sym.Width(c)
		rel := sym.Rel(c)
		plan := &xferPlan{
			sends:            make([][]sendPart, gc.Size()),
			recvs:            make(map[int][]recvPart),
			selfChildLocals:  make(map[int][]int),
			selfParentLocals: make(map[int][]int),
		}
		type pairKey struct{ srcIdx, dst int }
		bySrc := make(map[pairKey]*sendPart)
		byDst := make(map[pairKey]*recvPart)
		var pairOrder []pairKey
		for k := tc; k < sym.Height(c); k++ {
			pi := int(rel[k-tc])
			srcIdx := layC.Owner(k)
			src := gc.Ranks[srcIdx]
			dst := gp.Ranks[layP.Owner(pi)]
			cl := layC.Local(k)
			pl := layP.Local(pi)
			if src == dst {
				plan.selfChildLocals[src] = append(plan.selfChildLocals[src], cl)
				plan.selfParentLocals[src] = append(plan.selfParentLocals[src], pl)
				continue
			}
			key := pairKey{srcIdx, dst}
			sp, ok := bySrc[key]
			if !ok {
				sp = &sendPart{dst: dst}
				bySrc[key] = sp
				byDst[key] = &recvPart{src: src}
				pairOrder = append(pairOrder, key)
			}
			sp.childLocals = append(sp.childLocals, cl)
			byDst[key].parentLocals = append(byDst[key].parentLocals, pl)
		}
		// deterministic emission order: (srcIdx, dst) ascending
		for i := 1; i < len(pairOrder); i++ {
			for j := i; j > 0; j-- {
				a, b := pairOrder[j-1], pairOrder[j]
				if b.srcIdx < a.srcIdx || (b.srcIdx == a.srcIdx && b.dst < a.dst) {
					pairOrder[j-1], pairOrder[j] = pairOrder[j], pairOrder[j-1]
				} else {
					break
				}
			}
		}
		for _, key := range pairOrder {
			plan.sends[key.srcIdx] = append(plan.sends[key.srcIdx], *bySrc[key])
			plan.recvs[key.dst] = append(plan.recvs[key.dst], *byDst[key])
		}
		plans[c] = plan
	}
	return plans
}

// Solver bundles a distributed factor with its precomputed exchange plans.
type Solver struct {
	DF    *DistFactor
	Opts  Options
	plans []*xferPlan

	// Trace, when non-nil, is invoked after each per-supernode step of
	// both sweeps with the processor's clock interval (diagnostics; each
	// rank calls it only for itself, so implementations must be
	// rank-partitioned or synchronized).
	Trace func(rank, snode int, phase TracePhase, start, end float64)
}

// TracePhase labels a Trace interval.
type TracePhase int

// Trace phases.
const (
	TraceForward TracePhase = iota
	TraceBackward
)

func (ph TracePhase) String() string {
	if ph == TraceForward {
		return "forward"
	}
	return "backward"
}

// NewSolver precomputes the communication plans for the given distributed
// factor.
func NewSolver(df *DistFactor, opts Options) *Solver {
	if opts.B != df.B {
		panic(fmt.Sprintf("core: options block size %d != factor block size %d", opts.B, df.B))
	}
	return &Solver{DF: df, Opts: opts, plans: buildPlans(df)}
}

// Stats reports the virtual-time cost of a solver run.
type Stats struct {
	Time     float64 // parallel virtual time of the phase, seconds
	Flops    int64   // total flops charged machine-wide
	CommTime float64 // summed per-processor communication time
}

// MFLOPS returns the aggregate MFLOPS rate of the phase.
func (s Stats) MFLOPS() float64 {
	if s.Time <= 0 {
		return 0
	}
	return float64(s.Flops) / s.Time / 1e6
}
