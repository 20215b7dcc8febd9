package native

import (
	"context"
	"fmt"
	"testing"

	"sptrsv/internal/chol"
	"sptrsv/internal/mesh"
	"sptrsv/internal/symbolic"
)

// BenchmarkSweep times the two sweeps on one worker, where all of the
// time is in the kernels: CUBE-25 at 30 right-hand sides (the fat
// supernodes of the register tile) and GRID2D-63 at 1, 3 and 4 (the
// narrow supernodes and the daemon's batch widths). It reports the
// forward and backward milliseconds of a solve, the solve's GFLOP/s by
// the flop count the virtual machine charges, and the solver's arena in
// MB (ArenaBytes).
//
//	go test -run=NONE -bench=Sweep ./internal/native
func BenchmarkSweep(b *testing.B) {
	for _, tc := range []struct {
		name string
		prob mesh.Problem
		ms   []int
	}{
		{"CUBE-25", mesh.Problem{A: mesh.Grid3D(25, 25, 25), Geom: mesh.Grid3DGeometry(25, 25, 25)}, []int{30}},
		{"GRID2D-63", mesh.Problem{A: mesh.Grid2D(63, 63), Geom: mesh.Grid2DGeometry(63, 63)}, []int{1, 3, 4}},
	} {
		ap, sym := symbolic.Prepare(tc.prob.A, tc.prob.Geom)
		f, err := chol.Factorize(ap, sym)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range tc.ms {
			b.Run(fmt.Sprintf("%s/nrhs=%d", tc.name, m), func(b *testing.B) {
				sv := NewSolver(f, Options{Workers: 1})
				defer sv.Close()
				rhs := mesh.RandomRHS(sym.N, m, 1)
				x := rhs.Clone()
				var fwd, bwd float64
				b.ResetTimer()
				for range b.N {
					st, err := sv.SolveInto(context.Background(), rhs, x)
					if err != nil {
						b.Fatal(err)
					}
					fwd += st.Forward.Seconds()
					bwd += st.Backward.Seconds()
				}
				n := float64(b.N)
				b.ReportMetric(1e3*fwd/n, "fwd-ms")
				b.ReportMetric(1e3*bwd/n, "bwd-ms")
				b.ReportMetric(float64(sym.SolveFlopsPerRHS)*float64(m)*n/(fwd+bwd)/1e9, "GFLOP/s")
				b.ReportMetric(float64(sv.ArenaBytes())/1e6, "arena-MB")
			})
		}
	}
}
