package symbolic

import (
	"sptrsv/internal/mesh"
	"sptrsv/internal/order"
	"sptrsv/internal/sparse"
)

// Prepare is the one set-up rule every caller that factors a matrix
// shares: fill-reducing ordering — geometric nested dissection when g
// gives the vertices' coordinates, graph nested dissection when g is nil
// (a file or an upload carries no geometry) — then the symbolic analysis
// of the permuted matrix, then relaxed supernode amalgamation (15%
// padding or 32 absolute entries, mirroring the fat supernodes of the
// paper's structural matrices). It returns the permuted matrix
// (fill-reducing ∘ postorder) and its symbolic factor.
func Prepare(a *sparse.SymCSC, g *mesh.Geometry) (*sparse.SymCSC, *Factor) {
	ap, f := PrepareExact(a, g)
	return ap, Amalgamate(f, 0.15, 32)
}

// PrepareExact is Prepare without the amalgamation: exact fundamental
// supernodes.
func PrepareExact(a *sparse.SymCSC, g *mesh.Geometry) (*sparse.SymCSC, *Factor) {
	var perm []int
	if g != nil {
		perm = order.NestedDissectionGeom(a, g)
	} else {
		perm = order.NestedDissectionGraph(a)
	}
	f, _, ap := Analyze(a.PermuteSym(perm))
	return ap, f
}
