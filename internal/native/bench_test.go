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
// narrow supernodes and the daemon's batch widths). On two workers it
// times a root split into two RHS-lane windows against the root whole:
// CUBE-25 at 30, where the solver splits it, and GRID2D-63 at 8, the
// daemon's widest batch, where the least window work keeps it whole
// (grain.go). split=true splits wherever depth and cutoff allow,
// split=false nowhere.
// It reports the forward and backward milliseconds of a solve, the
// solve's GFLOP/s by the flop count the virtual machine charges, the
// solver's arena in MB (ArenaBytes) and the tasks per sweep.
//
//	go test -run=NONE -bench=Sweep ./internal/native
func BenchmarkSweep(b *testing.B) {
	for _, tc := range []struct {
		name string
		prob mesh.Problem
		ms   []int // widths on one worker
		two  int   // width on two workers
	}{
		{"CUBE-25", mesh.Problem{A: mesh.Grid3D(25, 25, 25), Geom: mesh.Grid3DGeometry(25, 25, 25)}, []int{30}, 30},
		{"GRID2D-63", mesh.Problem{A: mesh.Grid2D(63, 63), Geom: mesh.Grid2DGeometry(63, 63)}, []int{1, 3, 4}, 8},
	} {
		ap, sym := symbolic.Prepare(tc.prob.A, tc.prob.Geom)
		f, err := chol.Factorize(ap, sym)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range tc.ms {
			b.Run(fmt.Sprintf("%s/nrhs=%d", tc.name, m), func(b *testing.B) { sweep(b, f, m, 1, true) })
		}
		for _, split := range []bool{true, false} {
			b.Run(fmt.Sprintf("%s/nrhs=%d/workers=2/split=%t", tc.name, tc.two, split), func(b *testing.B) { sweep(b, f, tc.two, 2, split) })
		}
	}
}

// sweep is one case of BenchmarkSweep: m right-hand sides on workers
// workers, with the top of the tree split into RHS-lane windows wherever
// depth and cutoff allow, whatever work a window carries, or nowhere.
func sweep(b *testing.B, f *chol.Factor, m, workers int, split bool) {
	sym := f.Sym
	sv := NewSolver(f, Options{Workers: workers})
	defer sv.Close()
	// Before the first solve builds the schedule.
	sv.minWindow = 0
	if !split {
		sv.windows = nil
	}
	rhs := mesh.RandomRHS(sym.N, m, 1)
	x := rhs.Clone()
	var fwd, bwd float64
	var tasks int
	b.ResetTimer()
	for range b.N {
		st, err := sv.SolveInto(context.Background(), rhs, x)
		if err != nil {
			b.Fatal(err)
		}
		fwd += st.Forward.Seconds()
		bwd += st.Backward.Seconds()
		tasks = st.Tasks
	}
	n := float64(b.N)
	b.ReportMetric(1e3*fwd/n, "fwd-ms")
	b.ReportMetric(1e3*bwd/n, "bwd-ms")
	b.ReportMetric(float64(sym.SolveFlopsPerRHS)*float64(m)*n/(fwd+bwd)/1e9, "GFLOP/s")
	b.ReportMetric(float64(sv.ArenaBytes())/1e6, "arena-MB")
	b.ReportMetric(float64(tasks), "tasks")
}
