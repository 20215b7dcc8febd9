// Package sptrsv's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (see DESIGN.md's per-experiment index). Each
// benchmark runs the full virtual-machine pipeline and reports the
// *virtual* (simulated Cray-T3D) times and MFLOPS as custom metrics —
// vtime-solve-s, vMFLOPS-solve, vtime-fact-s, vratio-redist — alongside
// the usual wall-clock ns/op of the simulation itself.
//
//	go test -bench=. -benchmem .
package sptrsv

import (
	"fmt"
	"testing"

	"sptrsv/internal/analysis"
	"sptrsv/internal/chol"
	"sptrsv/internal/core"
	"sptrsv/internal/harness"
	"sptrsv/internal/machine"
	"sptrsv/internal/mapping"
	"sptrsv/internal/mesh"
	"sptrsv/internal/native"
	"sptrsv/internal/parfact"
	"sptrsv/internal/redist"
	"sptrsv/internal/symbolic"
	"sptrsv/internal/twodsolve"
)

// benchProblem returns a moderate-size 2-D problem used by most
// benchmarks (same graph class as the paper's BCSSTK15 stand-in, sized so
// a full p-sweep stays fast).
func benchProblem() *harness.Prepared {
	return harness.Prepare(mesh.Problem{
		Name: "GRID2D-63", A: mesh.Grid2D(63, 63), Geom: mesh.Grid2DGeometry(63, 63),
	})
}

func benchProblem3D() *harness.Prepared {
	return harness.Prepare(mesh.Problem{
		Name: "CUBE-13", A: mesh.Grid3D(13, 13, 13), Geom: mesh.Grid3DGeometry(13, 13, 13),
	})
}

// reportPipeline publishes virtual metrics from one pipeline result.
func reportPipeline(b *testing.B, res harness.Result) {
	b.Helper()
	b.ReportMetric(res.Solve.Time, "vtime-solve-s")
	b.ReportMetric(res.Solve.MFLOPS(), "vMFLOPS-solve")
	b.ReportMetric(res.Factor.Time, "vtime-fact-s")
	b.ReportMetric(res.Redist.Time/res.Solve.Time, "vratio-redist")
	if res.Residual > 1e-9 {
		b.Fatalf("residual %g", res.Residual)
	}
}

// BenchmarkFig7Table regenerates the rows of the paper's Figure 7 table:
// factorization, redistribution, and FBsolve statistics per (p, NRHS).
func BenchmarkFig7Table(b *testing.B) {
	pr := benchProblem()
	for _, p := range []int{1, 16, 64} {
		for _, m := range []int{1, 10, 30} {
			b.Run(fmt.Sprintf("p=%d/nrhs=%d", p, m), func(b *testing.B) {
				var last harness.Result
				for i := 0; i < b.N; i++ {
					cfg := harness.DefaultConfig(p)
					cfg.NRHS = m
					res, err := harness.Run(pr, cfg)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				reportPipeline(b, last)
			})
		}
	}
}

// BenchmarkFig8Curves regenerates the MFLOPS-versus-p series of Figure 8
// (2-D and 3-D problem, NRHS 1 and 30).
func BenchmarkFig8Curves(b *testing.B) {
	for _, pr := range []*harness.Prepared{benchProblem(), benchProblem3D()} {
		for _, p := range []int{1, 4, 16, 64, 256} {
			for _, m := range []int{1, 30} {
				b.Run(fmt.Sprintf("%s/p=%d/nrhs=%d", pr.Name, p, m), func(b *testing.B) {
					var mf float64
					for i := 0; i < b.N; i++ {
						cfg := harness.DefaultConfig(p)
						results, err := harness.SolveOnly(pr, cfg, []int{m})
						if err != nil {
							b.Fatal(err)
						}
						mf = results[0].Solve.MFLOPS()
					}
					b.ReportMetric(mf, "vMFLOPS-solve")
				})
			}
		}
	}
}

// BenchmarkFig5Isoefficiency measures efficiency along the W ∝ p² ladder
// of Equations 5-6: grid side doubles as p quadruples twice.
func BenchmarkFig5Isoefficiency(b *testing.B) {
	for _, pc := range []struct{ p, side int }{{1, 33}, {4, 132}, {16, 528}} {
		b.Run(fmt.Sprintf("p=%d/side=%d", pc.p, pc.side), func(b *testing.B) {
			prob := mesh.Problem{
				Name: "iso", A: mesh.Grid2D(pc.side, pc.side),
				Geom: mesh.Grid2DGeometry(pc.side, pc.side),
			}
			pr := harness.Prepare(prob)
			var eff float64
			for i := 0; i < b.N; i++ {
				r1, err := harness.Run(pr, harness.DefaultConfig(1))
				if err != nil {
					b.Fatal(err)
				}
				rp, err := harness.Run(pr, harness.DefaultConfig(pc.p))
				if err != nil {
					b.Fatal(err)
				}
				eff = analysis.Efficiency(r1.Solve.Time, rp.Solve.Time, pc.p)
			}
			b.ReportMetric(eff, "vefficiency")
		})
	}
}

// BenchmarkRedistRatio reproduces the §4/§5 redistribution experiment:
// 2-D→1-D conversion time over single-RHS FBsolve time (paper: ≤0.9).
func BenchmarkRedistRatio(b *testing.B) {
	pr := benchProblem()
	for _, p := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := harness.SolveOnly(pr, harness.DefaultConfig(p), []int{1})
				if err != nil {
					b.Fatal(err)
				}
				ratio = res[0].Redist.Time / res[0].Solve.Time
			}
			b.ReportMetric(ratio, "vratio-redist")
			if ratio > 0.9 {
				b.Fatalf("redistribution ratio %.2f exceeds the paper's bound", ratio)
			}
		})
	}
}

// BenchmarkDenseTriangular runs the §3.3 reference point: the same
// pipelined solver on a dense triangle (one supernode) — the sparse
// solver's scalability is bounded by (and here compared with) this case.
func BenchmarkDenseTriangular(b *testing.B) {
	pr := harness.PrepareDense(512)
	for _, p := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var res harness.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = harness.Run(pr, harness.DefaultConfig(p))
				if err != nil {
					b.Fatal(err)
				}
			}
			reportPipeline(b, res)
		})
	}
}

// BenchmarkBlockSize is the b-sweep ablation: the paper's pipelined cost
// b(q−1)+t trades pipeline granularity against message count.
func BenchmarkBlockSize(b *testing.B) {
	pr := benchProblem()
	for _, bs := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("b=%d", bs), func(b *testing.B) {
			var t float64
			for i := 0; i < b.N; i++ {
				cfg := harness.DefaultConfig(64)
				cfg.B = bs
				res, err := harness.SolveOnly(pr, cfg, []int{1})
				if err != nil {
					b.Fatal(err)
				}
				t = res[0].Solve.Time
			}
			b.ReportMetric(t, "vtime-solve-s")
		})
	}
}

// BenchmarkPriorityVariants compares the column-priority (Fig. 3c) and
// row-priority (Fig. 3b) pipelined forward eliminations.
func BenchmarkPriorityVariants(b *testing.B) {
	pr := benchProblem()
	for _, row := range []bool{false, true} {
		name := "column-priority"
		if row {
			name = "row-priority"
		}
		b.Run(name, func(b *testing.B) {
			var t float64
			for i := 0; i < b.N; i++ {
				cfg := harness.DefaultConfig(64)
				cfg.RowPriority = row
				res, err := harness.SolveOnly(pr, cfg, []int{1})
				if err != nil {
					b.Fatal(err)
				}
				t = res[0].Solve.Time
			}
			b.ReportMetric(t, "vtime-solve-s")
		})
	}
}

// BenchmarkAmalgamation measures the effect of relaxed supernodes on the
// parallel solve (chains of thin supernodes cost pipeline start-ups).
func BenchmarkAmalgamation(b *testing.B) {
	prob := mesh.Problem{Name: "GRID2D-63", A: mesh.Grid2D(63, 63), Geom: mesh.Grid2DGeometry(63, 63)}
	for _, amalg := range []bool{false, true} {
		name := "exact"
		pr := harness.PrepareExact(prob)
		if amalg {
			name = "amalgamated"
			pr = harness.Prepare(prob)
		}
		b.Run(name, func(b *testing.B) {
			var t float64
			for i := 0; i < b.N; i++ {
				res, err := harness.SolveOnly(pr, harness.DefaultConfig(64), []int{1})
				if err != nil {
					b.Fatal(err)
				}
				t = res[0].Solve.Time
			}
			b.ReportMetric(t, "vtime-solve-s")
			b.ReportMetric(float64(pr.Sym.NSuper), "supernodes")
		})
	}
}

// BenchmarkPartitioning1Dvs2D reproduces the Figure 5 partitioning
// comparison on a dense triangular system: the 1-D pipelined solver
// (after redistribution) versus solving directly in the factorization's
// 2-D layout. The growing 2-D/1-D ratio is the paper's case for paying
// the redistribution.
func BenchmarkPartitioning1Dvs2D(b *testing.B) {
	pr := harness.PrepareDense(256)
	for _, p := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var t1d, t2d float64
			for i := 0; i < b.N; i++ {
				asn := mapping.SubtreeToSubcube(pr.Sym, p)
				mach := machine.New(p, machine.T3D())
				f2d, _, err := parfact.Factorize(mach, pr.A, pr.Sym, asn, 8)
				if err != nil {
					b.Fatal(err)
				}
				rhs := mesh.RandomRHS(pr.Sym.N, 1, 1)
				_, st2 := twodsolve.Solve(mach, f2d, rhs)
				df, _ := redist.ConvertTo(mach, f2d, 8)
				sv := core.NewSolver(df, core.Options{B: 8})
				_, st1 := sv.Solve(mach, rhs)
				t1d, t2d = st1.Time, st2.Time
			}
			b.ReportMetric(t1d, "vtime-1d-s")
			b.ReportMetric(t2d, "vtime-2d-s")
			b.ReportMetric(t2d/t1d, "vratio-2d-over-1d")
		})
	}
}

// BenchmarkAmortizedRedistribution measures the paper's amortization
// claim: the one-time 2-D→1-D conversion cost per solve vanishes as more
// systems are solved with the same factor.
func BenchmarkAmortizedRedistribution(b *testing.B) {
	pr := benchProblem()
	for _, solves := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("solves=%d", solves), func(b *testing.B) {
			var perSolve float64
			for i := 0; i < b.N; i++ {
				asn := mapping.SubtreeToSubcube(pr.Sym, 64)
				mach := machine.New(64, machine.T3D())
				f2d, _, err := parfact.Factorize(mach, pr.A, pr.Sym, asn, 32)
				if err != nil {
					b.Fatal(err)
				}
				df, rst := redist.ConvertTo(mach, f2d, 8)
				sv := core.NewSolver(df, core.Options{B: 8})
				total := rst.Time
				for k := 0; k < solves; k++ {
					_, st := sv.Solve(mach, mesh.RandomRHS(pr.Sym.N, 1, int64(k)))
					total += st.Time
				}
				perSolve = total / float64(solves)
			}
			b.ReportMetric(perSolve, "vtime-per-solve-s")
		})
	}
}

// BenchmarkMappingSubtreeVsFlat quantifies what subtree-to-subcube buys
// over mapping every supernode across the whole machine: concurrent
// subtrees and localized communication.
func BenchmarkMappingSubtreeVsFlat(b *testing.B) {
	pr := benchProblem()
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		b.Fatal(err)
	}
	for _, flat := range []bool{false, true} {
		name := "subtree-to-subcube"
		if flat {
			name = "flat"
		}
		b.Run(name, func(b *testing.B) {
			var t float64
			for i := 0; i < b.N; i++ {
				var asn *mapping.Assignment
				if flat {
					asn = mapping.Flat(pr.Sym, 64)
				} else {
					asn = mapping.SubtreeToSubcube(pr.Sym, 64)
				}
				df := core.DistributeRows(f, asn, 8)
				sv := core.NewSolver(df, core.Options{B: 8})
				mach := machine.New(64, machine.T3D())
				_, st := sv.Solve(mach, mesh.RandomRHS(pr.Sym.N, 1, 1))
				t = st.Time
			}
			b.ReportMetric(t, "vtime-solve-s")
		})
	}
}

// BenchmarkSupernodalVsColumnwise compares the supernodal (dense
// trapezoid) sequential solve against the plain column-compressed BLAS-1
// baseline — the organizational advantage the multifrontal structure
// provides, measured in wall-clock time on this host.
func BenchmarkSupernodalVsColumnwise(b *testing.B) {
	pr := benchProblem()
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		b.Fatal(err)
	}
	csc := f.ToCSC()
	for _, m := range []int{1, 30} {
		rhs := mesh.RandomRHS(pr.Sym.N, m, 1)
		b.Run(fmt.Sprintf("supernodal/nrhs=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x := rhs.Clone()
				f.Solve(x)
			}
		})
		b.Run(fmt.Sprintf("columnwise/nrhs=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x := rhs.Clone()
				csc.Solve(x)
			}
		})
	}
}

// BenchmarkSequentialKernels measures the real (wall-clock) throughput of
// the sequential substrate on this host: multifrontal factorization and
// supernodal FBsolve.
func BenchmarkSequentialKernels(b *testing.B) {
	pr := benchProblem()
	b.Run("factorize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := chol.Factorize(pr.A, pr.Sym); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(pr.Sym.FactorFlops)/1e6, "Mflop/op")
	})
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{1, 30} {
		b.Run(fmt.Sprintf("fbsolve/nrhs=%d", m), func(b *testing.B) {
			rhs := mesh.RandomRHS(pr.Sym.N, m, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := rhs.Clone()
				f.Solve(x)
			}
			b.ReportMetric(float64(pr.Sym.SolveFlopsPerRHS*int64(m))/1e6, "Mflop/op")
		})
	}
}

// BenchmarkNativeSolver measures the wall-clock throughput of the
// shared-memory goroutine engine (internal/native) across worker counts
// and RHS widths, reporting measured MFLOPS alongside the virtual-time
// simulator's predicted speedup for the same processor count — the
// model-versus-hardware comparison.
func BenchmarkNativeSolver(b *testing.B) {
	pr := benchProblem()
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		b.Fatal(err)
	}
	// simulator predictions (virtual seconds) per processor count
	predict := func(p int) float64 {
		asn := mapping.SubtreeToSubcube(pr.Sym, p)
		df := core.DistributeRows(f, asn, 8)
		sv := core.NewSolver(df, core.Options{B: 8})
		_, st := sv.Solve(machine.New(p, machine.T3D()), mesh.RandomRHS(pr.Sym.N, 1, 1))
		return st.Time
	}
	base := predict(1)
	for _, w := range []int{1, 2, 4, 8} {
		predicted := base / predict(w)
		for _, m := range []int{1, 30} {
			b.Run(fmt.Sprintf("workers=%d/nrhs=%d", w, m), func(b *testing.B) {
				sv := native.NewSolver(f, native.Options{Workers: w})
				defer sv.Close()
				rhs := mesh.RandomRHS(pr.Sym.N, m, 1)
				var st native.Stats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, st = sv.Solve(rhs)
				}
				b.ReportMetric(st.MFLOPS(pr.Sym.SolveFlopsPerRHS, m), "MFLOPS-measured")
				b.ReportMetric(predicted, "vspeedup-predicted")
			})
		}
	}
}

// BenchmarkNativeVsSequential pits the parallel engine at full core count
// against the plain sequential supernodal solve — the task-DAG overhead
// is the gap at one core, the speedup is the gap at many.
func BenchmarkNativeVsSequential(b *testing.B) {
	pr := benchProblem()
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		b.Fatal(err)
	}
	rhs := mesh.RandomRHS(pr.Sym.N, 4, 1)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := rhs.Clone()
			f.Solve(x)
		}
	})
	b.Run("native", func(b *testing.B) {
		sv := native.NewSolver(f, native.Options{})
		defer sv.Close()
		for i := 0; i < b.N; i++ {
			sv.Solve(rhs)
		}
	})
}

// BenchmarkMachineCollectives measures the virtual machine's collective
// primitives themselves (wall-clock cost of simulating them).
func BenchmarkMachineCollectives(b *testing.B) {
	for _, p := range []int{16, 64} {
		b.Run(fmt.Sprintf("alltoall/p=%d", p), func(b *testing.B) {
			mach := machine.New(p, machine.T3D())
			g := machine.Range(0, p)
			for i := 0; i < b.N; i++ {
				mach.Run(func(proc *machine.Proc) {
					parts := make([][]float64, p)
					for d := range parts {
						parts[d] = make([]float64, 16)
					}
					proc.AllToAllPersonalized(g, 1, parts)
				})
			}
		})
	}
}

// BenchmarkSolverPlanning measures the communication-plan precomputation
// (symbolic side of the parallel solver).
func BenchmarkSolverPlanning(b *testing.B) {
	pr := benchProblem()
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		b.Fatal(err)
	}
	asn := mapping.SubtreeToSubcube(pr.Sym, 64)
	df := core.DistributeRows(f, asn, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewSolver(df, core.Options{B: 8})
	}
}

// BenchmarkSymbolic measures ordering-to-supernodes analysis throughput.
func BenchmarkSymbolic(b *testing.B) {
	a := mesh.Grid2D(63, 63)
	b.Run("analyze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			symbolic.Analyze(a)
		}
	})
}
