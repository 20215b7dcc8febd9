package harness

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/core"
	"sptrsv/internal/machine"
	"sptrsv/internal/mapping"
	"sptrsv/internal/mesh"
	"sptrsv/internal/native"
	"sptrsv/internal/sparse"
)

// NativeResult bundles one wall-clock solve of the native shared-memory
// engine, with the same residual check the virtual-machine pipeline gets.
type NativeResult struct {
	Name          string
	N             int
	NnzL          int64
	Workers, NRHS int

	FactorTime time.Duration // sequential numeric factorization, wall clock
	Solve      native.Stats

	Residual float64 // ‖Ax−b‖∞ / ‖b‖∞
}

// MFLOPS returns the measured solve rate using the symbolic flop count —
// the same numerator as the simulator's virtual MFLOPS, so the two rates
// are directly comparable.
func (r NativeResult) MFLOPS(flopsPerRHS int64) float64 {
	return r.Solve.MFLOPS(flopsPerRHS, r.NRHS)
}

// RunNative factors the prepared problem sequentially and solves with the
// goroutine-based engine of package native, configured by opts (worker
// count, task grain, hooks — everything native.NewSolver accepts).
func RunNative(pr *Prepared, opts native.Options, nrhs int, seed int64) (NativeResult, error) {
	res := NativeResult{
		Name: pr.Name, N: pr.Sym.N, NnzL: pr.Sym.NnzL,
		Workers: opts.Workers, NRHS: nrhs,
	}
	t0 := time.Now()
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		return res, fmt.Errorf("harness: %s: %w", pr.Name, err)
	}
	res.FactorTime = time.Since(t0)
	sv := native.NewSolver(f, opts)
	b := mesh.RandomRHS(pr.Sym.N, nrhs, seed)
	x, st, err := sv.SolveCtx(context.Background(), b)
	res.Workers = sv.Workers()
	res.Solve = st
	if err != nil {
		return res, fmt.Errorf("harness: %s: native solve: %w", pr.Name, err)
	}
	r := sparse.NewBlock(pr.Sym.N, nrhs)
	pr.A.MulBlock(x, r)
	r.AddScaled(-1, b)
	res.Residual = r.NormInf() / b.NormInf()
	return res, nil
}

// SpeedupRow is one line of the predicted-versus-measured comparison:
// the virtual-time simulator's speedup at p processors next to the
// native engine's wall-clock speedup at p workers on the same problem.
type SpeedupRow struct {
	P                int
	PredictedTime    float64 // simulator virtual seconds at p processors
	PredictedSpeedup float64
	MeasuredTime     time.Duration // native wall clock at p workers (best of reps)
	MeasuredSpeedup  float64
}

// NativeConfig parameterizes the predicted-versus-measured comparison:
// how many right-hand sides, how many timed repetitions (best kept), and
// the native engine's task grain (0 derives it from work and workers,
// negative disables subtree aggregation).
type NativeConfig struct {
	NRHS  int
	Reps  int
	Grain int
	Model machine.CostModel
}

// NativeVsSim runs the same factor through the virtual-time solver at
// each processor count (the paper's model prediction) and through the
// native engine at the same number of workers (the measured reality),
// returning one row per count plus the native residual at the largest
// worker count. The sequential baselines (p = 1, workers = 1) are
// computed independently of the counts list.
func NativeVsSim(pr *Prepared, counts []int, cfg NativeConfig) ([]SpeedupRow, float64, error) {
	nrhs, reps, model := cfg.NRHS, cfg.Reps, cfg.Model
	if reps < 1 {
		reps = 1
	}
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		return nil, 0, fmt.Errorf("harness: %s: %w", pr.Name, err)
	}
	b := mesh.RandomRHS(pr.Sym.N, nrhs, 1)

	simTime := func(p int) float64 {
		asn := mapping.SubtreeToSubcube(pr.Sym, p)
		df := core.DistributeRows(f, asn, 8)
		sv := core.NewSolver(df, core.Options{B: 8})
		_, st := sv.Solve(machine.New(p, model), b)
		return st.Time
	}
	nativeTime := func(w int) (time.Duration, *sparse.Block, error) {
		// One solver per count, reused across reps: after the first call
		// the arena is warm and repetitions run allocation-free.
		sv := native.NewSolver(f, native.Options{Workers: w, Grain: cfg.Grain})
		defer sv.Close()
		x := sparse.NewBlock(pr.Sym.N, nrhs)
		best := time.Duration(0)
		for r := 0; r < reps; r++ {
			st, err := sv.SolveInto(context.Background(), b, x)
			if err != nil {
				return 0, nil, fmt.Errorf("harness: %s: native solve (workers=%d): %w", pr.Name, w, err)
			}
			if t := st.Total(); best == 0 || t < best {
				best = t
			}
		}
		return best, x, nil
	}

	simBase := simTime(1)
	if _, _, err := nativeTime(1); err != nil { // warm-up: page in the factor and buffers before timing
		return nil, 0, err
	}
	natBase, _, err := nativeTime(1)
	if err != nil {
		return nil, 0, err
	}
	rows := make([]SpeedupRow, 0, len(counts))
	var lastX *sparse.Block
	for _, p := range counts {
		row := SpeedupRow{P: p}
		row.PredictedTime = simTime(p)
		row.PredictedSpeedup = simBase / row.PredictedTime
		row.MeasuredTime, lastX, err = nativeTime(p)
		if err != nil {
			return nil, 0, err
		}
		row.MeasuredSpeedup = natBase.Seconds() / row.MeasuredTime.Seconds()
		rows = append(rows, row)
	}
	r := sparse.NewBlock(pr.Sym.N, nrhs)
	pr.A.MulBlock(lastX, r)
	r.AddScaled(-1, b)
	return rows, r.NormInf() / b.NormInf(), nil
}

// NativeVsSimTable formats the comparison as the table cmd/nativebench
// prints and the docs reproduce: predicted (virtual T3D) versus measured
// (this host) speedup per processor/worker count.
func NativeVsSimTable(pr *Prepared, counts []int, cfg NativeConfig) (string, error) {
	rows, residual, err := NativeVsSim(pr, counts, cfg)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: N = %d, nnz(L) = %d, NRHS = %d, GOMAXPROCS = %d\n",
		pr.Name, pr.Sym.N, pr.Sym.NnzL, cfg.NRHS, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&sb, "%6s  %14s  %10s  %14s  %10s\n",
		"p", "sim-time(s)", "sim-spdup", "native-time", "meas-spdup")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%6d  %14.6f  %10.2f  %14s  %10.2f\n",
			r.P, r.PredictedTime, r.PredictedSpeedup, r.MeasuredTime.Round(time.Microsecond), r.MeasuredSpeedup)
	}
	fmt.Fprintf(&sb, "residual = %.2e\n", residual)
	return sb.String(), nil
}
