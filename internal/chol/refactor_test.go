package chol

import (
	"errors"
	"math"
	"slices"
	"testing"

	"sptrsv/internal/mesh"
	"sptrsv/internal/order"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// perturb returns a copy of a sharing the pattern slices but with every
// value scaled — SPD-preserving (s·A is SPD for s > 0), so the perturbed
// matrix factors cleanly.
func perturb(a *sparse.SymCSC, s float64) *sparse.SymCSC {
	vals := make([]float64, len(a.Val))
	for i, v := range a.Val {
		vals[i] = s * v
	}
	return &sparse.SymCSC{N: a.N, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: vals}
}

// requireSameBits fails unless got's float64 panels equal want's bit for
// bit.
func requireSameBits(t *testing.T, what string, got, want *Factor) {
	t.Helper()
	for s := range want.Panels {
		for k, v := range want.Panels[s] {
			if g := got.Panels[s][k]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("%s: panel %d entry %d: got %v, want %v (not bitwise identical)", what, s, k, g, v)
			}
		}
	}
}

// TestRefactorizeBitwise pins the core contract: Refactorize(a') is
// bitwise identical to a from-scratch Factorize(a', sym) on both 2-D and
// 3-D problems, whichever way the plan reaches the traversal — inherited
// from Factorize and handed down a chain of refactorizations (pointer fast
// path), matched by content when the caller rebuilt the index slices,
// shared through Demote (which also propagates the float32 plane), or
// rebuilt because the factor is an external literal that carries none. It
// runs from a factor built at every worker count of testWorkers, whose
// plan the chain inherits.
func TestRefactorizeBitwise(t *testing.T) {
	cases := []struct {
		name string
		a    *sparse.SymCSC
		perm []int
	}{
		{"grid2d-9x9", mesh.Grid2D(9, 9), order.NestedDissectionGeom(mesh.Grid2D(9, 9), mesh.Grid2DGeometry(9, 9))},
		{"cube-4", mesh.Grid3D(4, 4, 4), order.NestedDissectionGeom(mesh.Grid3D(4, 4, 4), mesh.Grid3DGeometry(4, 4, 4))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f0, ap := prep(t, tc.a, tc.perm)
			for _, w := range testWorkers {
				f, err := factorize(ap, f0.Sym, w)
				if err != nil {
					t.Fatal(err)
				}
				refactorizeBitwise(t, w, f, ap)
			}
		})
	}
}

// refactorizeBitwise is TestRefactorizeBitwise's body for one factor f of
// ap, built at the given worker count.
func refactorizeBitwise(t *testing.T, workers int, f *Factor, ap *sparse.SymCSC) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("the factor was built at %d workers", workers)
		}
	}()
	orig, err := Factorize(ap, f.Sym)
	if err != nil {
		t.Fatal(err)
	}
	cur := f
	for round, scale := range []float64{2.5, 0.125, 7} {
		na := perturb(ap, scale)
		nf, err := cur.Refactorize(na)
		if err != nil {
			t.Fatalf("round %d: Refactorize: %v", round, err)
		}
		if nf == cur || nf.Sym != f.Sym {
			t.Fatalf("round %d: want a fresh factor sharing the symbolic analysis", round)
		}
		if nf.plan != f.plan {
			t.Fatalf("round %d: plan rebuilt for a matrix sharing the index slices", round)
		}
		want, err := Factorize(na, f.Sym)
		if err != nil {
			t.Fatalf("round %d: Factorize oracle: %v", round, err)
		}
		requireSameBits(t, "chained", nf, want)
		cur = nf
	}
	// The source factor must be untouched (in-flight solves depend
	// on it staying bitwise stable).
	requireSameBits(t, "source factor after Refactorize", f, orig)

	na := perturb(ap, 3)
	want, err := Factorize(na, f.Sym)
	if err != nil {
		t.Fatal(err)
	}

	copied := &sparse.SymCSC{N: na.N, ColPtr: slices.Clone(na.ColPtr), RowIdx: slices.Clone(na.RowIdx), Val: na.Val}
	nf, err := f.Refactorize(copied)
	if err != nil {
		t.Fatal(err)
	}
	if nf.plan != f.plan {
		t.Fatal("plan rebuilt for an equal pattern in fresh index slices")
	}
	requireSameBits(t, "copied pattern", nf, want)

	nf, err = f.Demote().Refactorize(na)
	if err != nil {
		t.Fatal(err)
	}
	if nf.plan != f.plan {
		t.Fatal("Demote did not share the plan")
	}
	requireSameBits(t, "demoted", nf, want)
	if nf.Panels32 == nil {
		t.Fatal("demoted: float32 plane not propagated")
	}
	for s := range want.Panels {
		for k, v := range want.Panels[s] {
			if nf.Panels32[s][k] != float32(v) {
				t.Fatalf("demoted: f32 panel %d entry %d: got %v, want %v", s, k, nf.Panels32[s][k], float32(v))
			}
		}
	}

	nf, err = (&Factor{Sym: f.Sym, Panels: f.Panels}).Refactorize(na)
	if err != nil {
		t.Fatal(err)
	}
	if nf.plan == nil || nf.plan == f.plan {
		t.Fatal("external literal: want a freshly built plan on the result")
	}
	requireSameBits(t, "external literal", nf, want)
}

// TestPlanSize pins what the multifrontal indices cost: one scatter index
// per nonzero of A in the plan plus one relative index per update row in
// the symbolic factor, nnz(A) + Σ(Height−Width) — not one per
// update-matrix entry.
func TestPlanSize(t *testing.T) {
	sym, ap := ndProblem(mesh.Grid2D(31, 31), mesh.Grid2DGeometry(31, 31))
	sym = symbolic.Amalgamate(sym, 0.15, 32)
	f, err := Factorize(ap, sym)
	if err != nil {
		t.Fatal(err)
	}
	want, got := len(ap.RowIdx), len(f.plan.asm)
	for s := 0; s < sym.NSuper; s++ {
		want += sym.Height(s) - sym.Width(s)
		got += len(sym.Rel(s))
	}
	if got != want {
		t.Fatalf("plan and symbolic factor hold %d indices, want nnz(A) + Σ(Height−Width) = %d", got, want)
	}
}

// TestFactorizeAllocsIndependentOfSize pins the O(1)-objects contract:
// plan construction and the numeric traversal allocate a fixed set of
// slabs, nothing per supernode, so the count does not grow with the mesh.
func TestFactorizeAllocsIndependentOfSize(t *testing.T) {
	allocs := func(side int) float64 {
		sym, ap := ndProblem(mesh.Grid2D(side, side), mesh.Grid2DGeometry(side, side))
		return testing.AllocsPerRun(5, func() {
			if _, err := Factorize(ap, sym); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(15), allocs(63); small != large {
		t.Fatalf("Factorize allocates %v objects on GRID2D-15 but %v on GRID2D-63", small, large)
	}
}

// TestDemotedFactorByProducts pins that LogDet, ToDenseL and ToCSC read a
// demoted factor's float32 plane instead of panicking on the absent
// float64 one (serve.Server.Factor() hands out such a factor under a mixed
// precision policy).
func TestDemotedFactorByProducts(t *testing.T) {
	a := mesh.Grid2D(6, 6)
	f, _ := prep(t, a, order.NestedDissectionGeom(a, mesh.Grid2DGeometry(6, 6)))
	d := f.Demote()
	if got, want := d.LogDet(), f.LogDet(); math.Abs(got-want) > 1e-5*math.Abs(want) {
		t.Fatalf("demoted LogDet = %g, want %g to float32 accuracy", got, want)
	}
	wantL, wantC := f.ToDenseL(), f.ToCSC()
	for i, v := range d.ToDenseL() {
		if v != float64(float32(wantL[i])) {
			t.Fatalf("demoted ToDenseL[%d] = %v, want %v", i, v, float64(float32(wantL[i])))
		}
	}
	dc := d.ToCSC()
	if !slices.Equal(dc.ColPtr, wantC.ColPtr) || !slices.Equal(dc.RowIdx, wantC.RowIdx) {
		t.Fatal("demoted ToCSC pattern differs from the float64 factor's")
	}
	for p, v := range dc.Val {
		if v != float64(float32(wantC.Val[p])) {
			t.Fatalf("demoted ToCSC value %d = %v, want %v", p, v, float64(float32(wantC.Val[p])))
		}
	}
}

// TestRefactorizePatternMismatch pins the typed error contract: a matrix
// whose size or pattern is incompatible with the symbolic analysis yields
// a *PatternError, never garbage values.
func TestRefactorizePatternMismatch(t *testing.T) {
	a := mesh.Grid2D(6, 6)
	perm := order.NestedDissectionGeom(a, mesh.Grid2DGeometry(6, 6))
	f, ap := prep(t, a, perm)

	var pe *PatternError
	if _, err := f.Refactorize(mesh.Grid2D(5, 5)); !errors.As(err, &pe) || pe.Reason != "dim" {
		t.Fatalf("size mismatch: got %v, want *PatternError{Reason: dim}", err)
	}

	// Same size, different structure: a dense first column introduces
	// entries outside the separator-ordered supernode patterns.
	n := ap.N
	bad := &sparse.SymCSC{N: n, ColPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		bad.ColPtr[j] = len(bad.RowIdx)
		if j == 0 {
			for i := 0; i < n; i++ {
				bad.RowIdx = append(bad.RowIdx, i)
				bad.Val = append(bad.Val, 1)
			}
		} else {
			bad.RowIdx = append(bad.RowIdx, j)
			bad.Val = append(bad.Val, 4)
		}
	}
	bad.ColPtr[n] = len(bad.RowIdx)
	pe = nil
	if _, err := f.Refactorize(bad); !errors.As(err, &pe) || pe.Reason != "entry" {
		t.Fatalf("pattern mismatch: got %v, want *PatternError{Reason: entry}", err)
	}

	// Factorize reports the same typed error for out-of-pattern entries.
	pe = nil
	if _, err := Factorize(bad, f.Sym); !errors.As(err, &pe) {
		t.Fatalf("Factorize pattern mismatch: got %v, want *PatternError", err)
	}
}
