package native

import (
	"testing"

	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
)

// TestNewSolverLikeBitwise pins the hot-swap contract: a solver built by
// NewSolverLike over a refactorized factor produces answers bitwise
// identical to a from-scratch NewSolver over the same factor, across RHS
// widths, while the template solver keeps answering
// against the old values untouched — old and new running interleaved, the
// swap scenario in miniature.
func TestNewSolverLikeBitwise(t *testing.T) {
	ap, f := setupAmalgamated(t, grid2DProblem(9, 9))
	na := &sparse.SymCSC{N: ap.N, ColPtr: ap.ColPtr, RowIdx: ap.RowIdx, Val: make([]float64, len(ap.Val))}
	for i, v := range ap.Val {
		na.Val[i] = 3 * v
	}
	nf, err := f.Refactorize(na)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 5} {
		old := NewSolver(f, Options{Workers: 4})
		liked := NewSolverLike(nf, old)
		fresh := NewSolver(nf, Options{Workers: 4})

		b := mesh.RandomRHS(ap.N, m, 7)
		xOld1, _ := old.Solve(b)
		xLiked, _ := liked.Solve(b)
		xFresh, _ := fresh.Solve(b)
		xOld2, _ := old.Solve(b) // old solver after the new one ran
		for i := range xLiked.Data {
			if xLiked.Data[i] != xFresh.Data[i] {
				t.Fatalf("m=%d: NewSolverLike answer differs from NewSolver at %d: %v vs %v", m, i, xLiked.Data[i], xFresh.Data[i])
			}
			if xOld1.Data[i] != xOld2.Data[i] {
				t.Fatalf("m=%d: template solver's answer changed after the liked solver ran", m)
			}
		}
		old.Close()
		liked.Close()
		fresh.Close()
	}
}

// TestNewSolverLikeRejectsForeignFactor pins the guard: sharing a
// schedule across different symbolic structures must panic, not corrupt.
func TestNewSolverLikeRejectsForeignFactor(t *testing.T) {
	_, f1 := setupAmalgamated(t, grid2DProblem(6, 6))
	_, f2 := setupAmalgamated(t, grid2DProblem(7, 7))
	sv := NewSolver(f1, Options{})
	defer sv.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("NewSolverLike accepted a factor with a different symbolic analysis")
		}
	}()
	NewSolverLike(f2, sv)
}
