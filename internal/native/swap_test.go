package native

import (
	"testing"

	"sptrsv/internal/chol"
	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
)

// TestRefactorizedSolversBitwise pins the hot-swap contract: two solvers,
// one over a factor and one over its refactorization — sharing one
// symbolic factor and with it the relative indices — solved interleaved,
// each give answers bitwise identical to their own solo answers, across
// RHS widths. The swap scenario in miniature: the new solver serves while
// the old one drains.
func TestRefactorizedSolversBitwise(t *testing.T) {
	ap, f := setupAmalgamated(t, grid2DProblem(9, 9))
	na := &sparse.SymCSC{N: ap.N, ColPtr: ap.ColPtr, RowIdx: ap.RowIdx, Val: make([]float64, len(ap.Val))}
	for i, v := range ap.Val {
		na.Val[i] = 3 * v
	}
	nf, err := f.Refactorize(na)
	if err != nil {
		t.Fatal(err)
	}
	if nf.Sym != f.Sym {
		t.Fatal("the refactorization does not share the factor's symbolic analysis")
	}
	for _, m := range []int{1, 5} {
		b := mesh.RandomRHS(ap.N, m, 7)
		solo := func(f *chol.Factor) *sparse.Block {
			sv := NewSolver(f, Options{Workers: 4})
			defer sv.Close()
			x, _ := sv.Solve(b)
			return x
		}
		wantOld, wantNew := solo(f), solo(nf)
		old := NewSolver(f, Options{Workers: 4})
		fresh := NewSolver(nf, Options{Workers: 4})
		for round := 0; round < 2; round++ {
			xOld, _ := old.Solve(b)
			xNew, _ := fresh.Solve(b)
			for i := range xNew.Data {
				if xOld.Data[i] != wantOld.Data[i] {
					t.Fatalf("m=%d round %d: old solver's entry %d differs from its solo answer", m, round, i)
				}
				if xNew.Data[i] != wantNew.Data[i] {
					t.Fatalf("m=%d round %d: new solver's entry %d differs from its solo answer", m, round, i)
				}
			}
		}
		old.Close()
		fresh.Close()
	}
}
