package chol

import "errors"

// This file is the float32 value plane of the factor: the storage half of
// the mixed-precision solve path. What it buys is memory — half the bytes
// a resident matrix costs the registry's LRU budget — not time: the
// sweeps compute in float64 whatever the plane, and at two or more
// right-hand sides they widen each panel into float64 before the register
// tile reads it. Accuracy is the business of the layers above:
// internal/native reads the f32 plane with float64 arithmetic, and
// internal/prec recovers float64 residual accuracy by iterative
// refinement (with a float64 fallback when refinement stagnates).

// ErrDemoted reports an operation that needs the float64 value plane on a
// factor that carries only the float32 one (see Demote). The sequential
// sweeps return it wrapped; callers holding a demoted factor must go
// through the mixed-precision path instead.
var ErrDemoted = errors.New("factor holds only the float32 value plane")

// EnsureFloat32 builds the float32 value plane from the float64 panels if
// it is not already present. The plane is one contiguous slab, laid out
// like the float64 one (slabPanels) and demoted entry by entry; a second
// call is a no-op. It panics if the factor has no float64 plane to demote
// from — a demoted factor already has its f32 plane, so this only happens
// on a zero-value Factor.
func (f *Factor) EnsureFloat32() {
	if f.Panels32 != nil {
		return
	}
	if f.Panels == nil {
		panic("chol: EnsureFloat32 on a factor with no value planes")
	}
	panels := slabPanels[float32](f.Sym)
	for s, p := range f.Panels {
		dst := panels[s]
		for i, v := range p {
			dst[i] = float32(v)
		}
	}
	f.Panels32 = panels
}

// Demote returns a factor that carries ONLY the float32 value plane —
// the float64 panels are dropped so the original slab can be collected
// and the resident cost really halves. The symbolic analysis and the
// factorization plan are shared: Refactorize works unchanged on a demoted
// factor (it rebuilds values from the matrix, not from Panels), while the
// sequential float64 sweeps return ErrDemoted. f itself is not mutated
// beyond (lazily) gaining the f32 plane.
func (f *Factor) Demote() *Factor {
	f.EnsureFloat32()
	return &Factor{Sym: f.Sym, Panels32: f.Panels32, plan: f.plan}
}

// ValueBytes returns the resident cost of the factor's value planes in
// bytes: 8 per entry for the float64 plane plus 4 for the float32 one,
// counting only planes actually present. This is what the registry
// charges against its LRU budget — a demoted factor costs half a full
// one, which is the whole point.
func (f *Factor) ValueBytes() int64 {
	var b int64
	if f.Panels != nil {
		b += f.Sym.NnzL * 8
	}
	if f.Panels32 != nil {
		b += f.Sym.NnzL * 4
	}
	return b
}
