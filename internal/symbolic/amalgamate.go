package symbolic

import "sptrsv/internal/etree"

// Amalgamate merges supernodes into their parents when the merged dense
// trapezoid would store only a bounded number of explicit zeros ("relaxed
// supernodes", as in production multifrontal codes descended from the
// paper's solver, e.g. WSMP). Sparse Laplacian-type matrices produce many
// narrow supernodes chained along the elimination tree; amalgamation
// fattens them, which raises the arithmetic intensity of the dense
// kernels and shortens the chain of pipeline start-ups on the parallel
// critical path, at the price of storing (and computing with) a few
// structural zeros.
//
// A child ending immediately before its parent group's first column is
// merged while the added padding stays within maxAbs entries or a
// maxFill fraction of the merged panel. The returned factor shares the
// elimination tree with f; NnzL becomes the stored-entry count
// (including padding), while ColCount and the flop counts keep their
// exact no-padding values.
//
// A merge is decided from counts. The child's rows below its own columns
// lie within its parent group's rows (the pattern of a column, beyond
// its parent, is inside the parent's), so the merged rows are the child's
// columns followed by the group's rows: the group's columns, then the
// rows below top, the original supernode the group grew from. The merged
// height is the column count plus top's below-rows, and the row lists are
// built once, after the loop.
func Amalgamate(f *Factor, maxFill float64, maxAbs int) *Factor {
	type group struct {
		startCol, endCol int
		top              int // the supernode the group grew from
		below            int // rows of top below its own columns
		stored           int // current storage including padding
		exact            int // sum of the members' exact (unpadded) sizes
	}
	groups := make([]group, f.NSuper)
	endsAt := make([]*group, f.N+1) // the live group ending at each column
	nsuper := 0
	for s := 0; s < f.NSuper; s++ {
		t := f.Width(s)
		ns := f.Height(s)
		sz := ns*t - t*(t-1)/2
		grp := &groups[s]
		*grp = group{
			startCol: f.Super[s],
			endCol:   f.Super[s+1],
			top:      s,
			below:    ns - t,
			stored:   sz,
			exact:    sz,
		}
		for grp.startCol > 0 {
			child := endsAt[grp.startCol]
			if child == nil {
				break
			}
			// the candidate must be a child of this group: the parent of
			// its last column must lie within the group's column range
			parentCol := f.Tree.Parent[grp.startCol-1]
			if parentCol < grp.startCol || parentCol >= grp.endCol {
				break
			}
			tNew := grp.endCol - child.startCol
			newStored := (tNew+grp.below)*tNew - tNew*(tNew-1)/2
			exact := child.exact + grp.exact
			// total padding is bounded against the exact nonzero count of
			// the whole group, so successive merges cannot compound.
			padding := newStored - exact
			if padding > maxAbs && float64(padding) > maxFill*float64(exact) {
				break
			}
			endsAt[grp.startCol] = nil
			nsuper--
			grp.startCol = child.startCol
			grp.stored = newStored
			grp.exact = exact
		}
		endsAt[grp.endCol] = grp
		nsuper++
	}

	// Collect groups in column order and rebuild the supernodal metadata.
	out := &Factor{
		N:                f.N,
		Tree:             f.Tree,
		ColCount:         f.ColCount,
		NSuper:           nsuper,
		Super:            make([]int, 1, nsuper+1),
		ColToSuper:       make([]int, f.N),
		Rows:             make([][]int, nsuper),
		SParent:          make([]int, nsuper),
		FactorFlops:      f.FactorFlops,
		SolveFlopsPerRHS: f.SolveFlopsPerRHS,
	}
	// Every group's rows, merged or not, are copied into one backing
	// array: sharing f.Rows would keep all of f's row lists alive, since
	// they are carved from one array too.
	height := 0
	for _, g := range endsAt {
		if g != nil {
			height += g.endCol - g.startCol + g.below
		}
	}
	back := make([]int, 0, height)
	// groups tile [0, N), so walking their end columns in order walks them
	for _, g := range endsAt {
		if g == nil {
			continue
		}
		s := len(out.Super) - 1
		if g.startCol != out.Super[s] {
			panic("symbolic: amalgamation groups do not tile the columns")
		}
		out.Super = append(out.Super, g.endCol)
		at := len(back)
		for j := g.startCol; j < g.endCol; j++ {
			back = append(back, j)
		}
		top := f.Rows[g.top]
		back = append(back, top[len(top)-g.below:]...)
		out.Rows[s] = back[at:len(back):len(back)]
		for j := g.startCol; j < g.endCol; j++ {
			out.ColToSuper[j] = s
		}
		out.NnzL += int64(g.stored)
	}
	for s := 0; s < nsuper; s++ {
		out.SParent[s] = -1
		if p := f.Tree.Parent[out.Super[s+1]-1]; p != -1 {
			out.SParent[s] = out.ColToSuper[p]
		}
	}
	out.SChildren = (&etree.Tree{Parent: out.SParent}).Children()
	return out
}
