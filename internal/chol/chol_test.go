package chol

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"sptrsv/internal/dense"
	"sptrsv/internal/mesh"
	"sptrsv/internal/order"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// prep orders, analyzes and factors a matrix; returns the factor and the
// permuted matrix it corresponds to.
func prep(t *testing.T, a *sparse.SymCSC, perm []int) (*Factor, *sparse.SymCSC) {
	t.Helper()
	sym, _, ap := symbolic.Analyze(a.PermuteSym(perm))
	if err := sym.Validate(); err != nil {
		t.Fatal(err)
	}
	f, err := Factorize(ap, sym)
	if err != nil {
		t.Fatal(err)
	}
	return f, ap
}

// ndProblem orders a mesh matrix by geometric nested dissection and
// analyzes it, returning the symbolic factor and the permuted matrix.
func ndProblem(a *sparse.SymCSC, g *mesh.Geometry) (*symbolic.Factor, *sparse.SymCSC) {
	sym, _, ap := symbolic.Analyze(a.PermuteSym(order.NestedDissectionGeom(a, g)))
	return sym, ap
}

func TestFactorReconstructsSmall(t *testing.T) {
	a := mesh.Grid2D(4, 4)
	perm := order.NestedDissectionGeom(a, mesh.Grid2DGeometry(4, 4))
	f, ap := prep(t, a, perm)
	n := ap.N
	l := f.ToDenseL()
	ad := ap.ToDense()
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k <= j; k++ {
				s += l[i*n+k] * l[j*n+k]
			}
			if math.Abs(s-ad[i*n+j]) > 1e-9 {
				t.Fatalf("(LLᵀ)[%d,%d] = %g, want %g", i, j, s, ad[i*n+j])
			}
		}
	}
}

func TestFactorMatchesDenseCholesky(t *testing.T) {
	a := mesh.Grid3D(3, 3, 2)
	perm := order.NestedDissectionGeom(a, mesh.Grid3DGeometry(3, 3, 2))
	f, ap := prep(t, a, perm)
	n := ap.N
	// dense factor of the permuted matrix
	ad := ap.ToDense()
	cm := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			cm[j*n+i] = ad[i*n+j]
		}
	}
	if err := dense.Cholesky(cm, n, n); err != nil {
		t.Fatal(err)
	}
	l := f.ToDenseL()
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if math.Abs(l[i*n+j]-cm[j*n+i]) > 1e-9 {
				t.Fatalf("L(%d,%d): multifrontal %g vs dense %g", i, j, l[i*n+j], cm[j*n+i])
			}
		}
	}
}

func TestSolveRecoversKnownSolution(t *testing.T) {
	a := mesh.Grid2D(8, 7)
	perm := order.NestedDissectionGeom(a, mesh.Grid2DGeometry(8, 7))
	f, ap := prep(t, a, perm)
	n, m := ap.N, 3
	x := mesh.RandomRHS(n, m, 11)
	b := sparse.NewBlock(n, m)
	ap.MulBlock(x, b)
	f.Solve(b)
	if d := b.MaxAbsDiff(x); d > 1e-9 {
		t.Fatalf("solution error %g", d)
	}
}

func TestSolveResidualLarger(t *testing.T) {
	a := mesh.Grid3D(7, 7, 7)
	perm := order.NestedDissectionGeom(a, mesh.Grid3DGeometry(7, 7, 7))
	f, ap := prep(t, a, perm)
	n, m := ap.N, 2
	b := mesh.RandomRHS(n, m, 5)
	x := b.Clone()
	f.Solve(x)
	r := sparse.NewBlock(n, m)
	ap.MulBlock(x, r)
	r.AddScaled(-1, b)
	if rel := r.NormInf() / b.NormInf(); rel > 1e-10 {
		t.Fatalf("relative residual %g", rel)
	}
}

func TestForwardBackwardSeparately(t *testing.T) {
	a := mesh.Grid2D(6, 6)
	perm := order.NestedDissectionGeom(a, mesh.Grid2DGeometry(6, 6))
	f, ap := prep(t, a, perm)
	n := ap.N
	l := f.ToDenseL()
	y := mesh.RandomRHS(n, 1, 7)
	// forward: solve L w = y, compare against dense triangular solve
	w := y.Clone()
	f.SolveForward(w)
	ref := y.Clone()
	cm := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			cm[j*n+i] = l[i*n+j]
		}
	}
	dense.SolveLowerRM(cm, n, n, ref.Data, 1)
	if d := w.MaxAbsDiff(ref); d > 1e-10 {
		t.Fatalf("forward mismatch %g", d)
	}
	// backward
	f.SolveBackward(w)
	dense.SolveLowerTransRM(cm, n, n, ref.Data, 1)
	if d := w.MaxAbsDiff(ref); d > 1e-10 {
		t.Fatalf("backward mismatch %g", d)
	}
}

func TestSolveWithRCMOrdering(t *testing.T) {
	// deep skinny etrees (RCM) must work too
	a := mesh.Grid2D(12, 3)
	perm := order.RCM(a)
	f, ap := prep(t, a, perm)
	x := mesh.RandomRHS(ap.N, 1, 3)
	b := sparse.NewBlock(ap.N, 1)
	ap.MulBlock(x, b)
	f.Solve(b)
	if d := b.MaxAbsDiff(x); d > 1e-8 {
		t.Fatalf("RCM-ordered solve error %g", d)
	}
}

func TestFactorizeRejectsMismatchedSymbolic(t *testing.T) {
	a := mesh.Grid2D(4, 4)
	sym, _, _ := symbolic.Analyze(a)
	b := mesh.Grid2D(5, 5)
	var pe *PatternError
	if _, err := Factorize(b, sym); !errors.As(err, &pe) || pe.Reason != "dim" || pe.Got != b.N || pe.Want != sym.N {
		t.Fatalf("size mismatch: got %v, want *PatternError{Reason: dim, Got: %d, Want: %d}", err, b.N, sym.N)
	}
}

func TestFactorizeRejectsIndefinite(t *testing.T) {
	tr := sparse.NewTriplet(3)
	tr.Add(0, 0, 1)
	tr.Add(1, 1, 1)
	tr.Add(2, 2, 1)
	tr.Add(1, 0, 5) // makes it indefinite
	a := tr.Compile()
	sym, _, ap := symbolic.Analyze(a)
	if _, err := Factorize(ap, sym); err == nil {
		t.Fatal("accepted indefinite matrix")
	}
}

// TestFactorizeNamesUnusablePivot plants +Inf, NaN, 0 and a negative
// value on the diagonal of the first column of a leaf supernode, of the
// root, and of two supernodes in sibling subtrees that factor in
// different tasks — the last of the first task and the first of the
// second, which a parallel run reaches first — and requires Factorize
// and Refactorize to refuse it alike at every worker count of
// testWorkers: a *dense.PivotError naming the matrix column of the
// lower-numbered supernode, matching dense.ErrNotPD, with the message of
// the one-worker run. At a leaf that column's pivot is the planted value
// itself; elsewhere the children's updates are subtracted first, so there
// only its kind is pinned.
func TestFactorizeNamesUnusablePivot(t *testing.T) {
	sym, ap := ndProblem(mesh.Grid2D(31, 31), mesh.Grid2DGeometry(31, 31))
	leaf, root := -1, sym.NSuper-1
	for s := 0; s < sym.NSuper && leaf < 0; s++ {
		if len(sym.SChildren[s]) == 0 {
			leaf = s
		}
	}
	if leaf < 0 || sym.SParent[root] >= 0 || len(sym.SChildren[root]) == 0 {
		t.Fatalf("GRID2D-31x31: no leaf below a root (leaf %d, root %d)", leaf, root)
	}
	// Two tasks without predecessors are sibling subtrees, free to run at
	// once.
	cut := factorCut(sym, testWorkers[len(testWorkers)-1])
	if len(cut.Up.Sources) < 2 {
		t.Fatalf("GRID2D-31x31: the cut has %d leaf tasks, want two", len(cut.Up.Sources))
	}
	first, second := cut.Members(cut.Up.Sources[0]), cut.Members(cut.Up.Sources[1])
	sib := []int{first[len(first)-1], second[0]}
	if len(first) < 2 || sib[0] > sib[1] {
		t.Fatalf("GRID2D-31x31: sibling tasks %v and %v", first, second)
	}
	for _, planted := range [][]int{{leaf}, {root}, sib} {
		s := planted[0] // the supernode named: the lowest planted
		col := sym.Super[s]
		for _, v := range []float64{math.Inf(1), math.NaN(), 0, -2} {
			a := perturb(ap, 1)
			for _, ps := range planted {
				pc := sym.Super[ps]
				for p := a.ColPtr[pc]; p < a.ColPtr[pc+1]; p++ {
					if a.RowIdx[p] == pc {
						a.Val[p] = v
					}
				}
			}
			_, want := factorize(a, sym, 1)
			if want == nil {
				t.Fatalf("supernodes %v: A(%d,%d) = %v factored", planted, col, col, v)
			}
			for _, w := range testWorkers {
				good, err := factorize(ap, sym, w)
				if err != nil {
					t.Fatal(err)
				}
				_, ferr := factorize(a, sym, w)
				_, rerr := good.Refactorize(a)
				for _, err := range []error{ferr, rerr} {
					var pe *dense.PivotError
					if !errors.Is(err, dense.ErrNotPD) || !errors.As(err, &pe) || pe.Column != col {
						t.Fatalf("workers %d: supernodes %v: A(%d,%d) = %v gave %v, want a *dense.PivotError for column %d", w, planted, col, col, v, err, col)
					}
					p := pe.Pivot
					var ok bool
					switch {
					case math.IsNaN(v):
						ok = math.IsNaN(p)
					case math.IsInf(v, 1):
						ok = math.IsInf(p, 1)
					case len(sym.SChildren[s]) == 0:
						ok = p == v
					default:
						ok = p < 0
					}
					if !ok {
						t.Fatalf("workers %d: supernode %d: A(%d,%d) = %v reported pivot %v", w, s, col, col, v, p)
					}
					if err.Error() != want.Error() {
						t.Fatalf("workers %d: supernodes %v: got %q, one worker says %q", w, planted, err, want)
					}
				}
			}
		}
	}
}

func TestQuickSolveAllGenerators(t *testing.T) {
	f := func(which uint8, m8 uint8, seed int64) bool {
		m := int(m8%4) + 1
		var a *sparse.SymCSC
		var g *mesh.Geometry
		switch which % 4 {
		case 0:
			a, g = mesh.Grid2D(6, 5), mesh.Grid2DGeometry(6, 5)
		case 1:
			a, g = mesh.Grid3D(3, 4, 3), mesh.Grid3DGeometry(3, 4, 3)
		case 2:
			a, g = mesh.Shell(4, 3, 2), mesh.ShellGeometry(4, 3, 2)
		default:
			a, g = mesh.Grid2D9(5, 5), mesh.Grid2DGeometry(5, 5)
		}
		perm := order.NestedDissectionGeom(a, g)
		sym, _, ap := symbolic.Analyze(a.PermuteSym(perm))
		fac, err := Factorize(ap, sym)
		if err != nil {
			return false
		}
		x := mesh.RandomRHS(ap.N, m, seed)
		b := sparse.NewBlock(ap.N, m)
		ap.MulBlock(x, b)
		fac.Solve(b)
		return b.MaxAbsDiff(x) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLogDet(t *testing.T) {
	a := mesh.Grid2D(5, 5)
	perm := order.NestedDissectionGeom(a, mesh.Grid2DGeometry(5, 5))
	f, ap := prep(t, a, perm)
	// reference: log det from a dense Cholesky of the permuted matrix
	n := ap.N
	ad := ap.ToDense()
	cm := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			cm[j*n+i] = ad[i*n+j]
		}
	}
	if err := dense.Cholesky(cm, n, n); err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for j := 0; j < n; j++ {
		want += 2 * math.Log(cm[j*n+j])
	}
	if got := f.LogDet(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("LogDet = %g, want %g", got, want)
	}
}
