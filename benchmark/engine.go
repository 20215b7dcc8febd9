package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/harness"
	"sptrsv/internal/native"
	"sptrsv/internal/sparse"
)

// engine is the pair of workloads that close-loop native.Solver.SolveInto
// from one caller: no server, no registry, no HTTP.
type engine struct {
	spec workloadSpec
	cfg  runConfig
	or   *oracle

	sys    *system
	sv     *native.Solver
	x      *sparse.Block // the caller's answer block, reused
	stages []stageTimes  // one per cold set-up

	// last is the Stats of the most recent SolveInto; fwd/bwd collect
	// every call's sweep times for the step being run.
	last     native.Stats
	fwd, bwd []float64
}

// setup is one cold set-up, problem spec → first answer: mesh,
// harness.Prepare, chol.Factorize, native.NewSolver, one SolveInto. The
// answer is verified after the clock stops.
func (e *engine) setup(res *result) (time.Duration, error) {
	t0 := time.Now()
	sys, err := buildSystem(e.spec, e.cfg.short)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	sv := native.NewSolver(sys.f, engineOptions())
	sys.stages.newSolver = time.Since(t1)
	x := sparse.NewBlock(sys.pr.Sym.N, e.spec.NRHS)
	_, err = sv.SolveInto(context.Background(), e.or.rhs[0], x)
	d := time.Since(t0)
	if err != nil {
		sv.Close()
		return 0, fmt.Errorf("first solve: %w", err)
	}
	res.op("first solve", e.or.verify(0, x.Data, nil, 0))
	e.sys, e.sv, e.x = sys, sv, x
	e.stages = append(e.stages, sys.stages)
	return d, nil
}

func (e *engine) teardown() {
	if e.sv != nil {
		e.sv.Close()
		e.sv = nil
	}
}

// callOn returns the closed loop's operation against solver sv.
func (e *engine) callOn(sv *native.Solver) callFn {
	return func(ctx context.Context, _, i int) ([]float64, error) {
		st, err := sv.SolveInto(ctx, e.or.rhs[i], e.x)
		e.last = st
		e.fwd = append(e.fwd, ms(st.Forward))
		e.bwd = append(e.bwd, ms(st.Backward))
		return e.x.Data, err
	}
}

// loop runs the closed loop on sv; with alt set, sv and alt take turns
// (see loopConfig.alt).
func (e *engine) loop(sv, alt *native.Solver, window time.Duration, traceName string) loopResult {
	e.fwd, e.bwd = e.fwd[:0], e.bwd[:0]
	cfg := loopConfig{
		clients: 1, warmup: e.cfg.warmup(window), window: window,
		call: e.callOn(sv), or: e.or, traceName: traceName,
		phases: func(int) []phase {
			return []phase{{"native.forward", e.last.Forward}, {"native.backward", e.last.Backward}}
		},
	}
	if alt != nil {
		cfg.alt = e.callOn(alt)
	}
	return runLoop(cfg)
}

func (e *engine) residentBytes() int64 {
	return e.sys.f.ValueBytes() + e.sv.ArenaBytes()
}

func (e *engine) measure(res *result) {
	window := e.cfg.window()
	l := e.loop(e.sv, nil, window, "")
	res.count(l)
	lat := durationsMs(l.samples, window)
	rate, slices := throughput(l.samples, window, e.spec.NRHS)
	res.e2e("solve_p50_ms", metric{Value: quantile(lat, 0.5), Samples: len(lat)})
	res.e2e("solves_per_s", metric{Value: rate, Samples: len(lat), SubWindows: slices})
	res.e2e("resident_mb", metric{Value: float64(e.residentBytes()) / 1e6})
}

// trace is the per-layer run: the measured loop with tracing switched
// on in every other tenth of it, then the same loop taking turns with a
// 1-worker solver, the float32 sweep, the allocation count and the
// in-process triad, sharing the run's --seconds between them.
func (e *engine) trace(res *result) {
	total := e.cfg.window()
	sym := e.sys.pr.Sym
	cols := e.spec.NRHS

	res.layer("order.prepare_ms", ms(medianDur(e.stages, func(s stageTimes) time.Duration { return s.prepare })))
	res.layer("chol.factorize_ms", ms(medianDur(e.stages, func(s stageTimes) time.Duration { return s.factorize })))
	res.layer("native.newsolver_ms", ms(medianDur(e.stages, func(s stageTimes) time.Duration { return s.newSolver })))

	// Depth 0: the measured loop again, the process counters read around
	// it, spans recorded in the odd tenths only — the even tenths are the
	// untraced twin the tracing overhead is judged against.
	window := total / 2
	before := markProc()
	l := e.loop(e.sv, e.sv, window, "engine.solve")
	after := markProc()
	res.count(l)
	res.spans = append(res.spans, l.spans...)
	res.procRows(before, after, l.attempted)
	res.clientRows(l, window, cols)
	plain, traced := pairedRate(l.samples, window, cols)
	res.layer("trace.overhead_pct", 100*(plain-traced)/plain)
	fwd, bwd := median(e.fwd), median(e.bwd)
	sweep := (fwd + bwd) / 1e3 // seconds
	res.layer("native.forward_ms", fwd)
	res.layer("native.backward_ms", bwd)
	res.solverRows(e.last)
	res.layer("native.gflops", float64(sym.SolveFlopsPerRHS)*float64(cols)/sweep/1e9)
	// Computed from array sizes, not counted: each sweep streams the
	// factor once and reads and writes the N×NRHS block once.
	bytes := 2*e.sys.f.ValueBytes() + 2*2*8*int64(sym.N)*int64(cols)
	res.layer("native.bytes_per_solve_computed", float64(bytes))
	gbps := float64(bytes) / sweep / 1e9
	res.layer("native.sweep_gbps_computed", gbps)

	// The plain single-threaded baseline of the same problem, taking
	// turns with the shipped configuration.
	opts := engineOptions()
	opts.Workers = 1
	one := native.NewSolver(e.sys.f, opts)
	window = total / 4
	l = e.loop(e.sv, one, window, "")
	one.Close()
	res.count(l)
	pN, p1 := pairedP50(l.samples, window)
	res.layer("native.speedup_vs_1worker", p1/pN)

	// The same factor demoted to float32, sweep only. Observed, not
	// gated, and not compared bit for bit: float32 storage changes the
	// answer by design.
	f32ms, err := e.float32Sweep(total * 3 / 20)
	res.op("float32 sweep", err)
	if err == nil {
		res.layer("native.f32_sweep_ms", f32ms)
		res.layer("native.f32_over_f64", (fwd+bwd)/f32ms)
	}

	res.layer("native.allocs_per_solve", e.allocsPerSolve())

	triad := triadGBps(e.sys.f.ValueBytes(), total/20)
	res.layer("native.triad_gbps", triad)
	res.layer("native.pct_of_triad", 100*gbps/triad)
}

// solverRows reports what a solve's Stats say about which code ran.
func (r *result) solverRows(st native.Stats) {
	r.layer("native.tasks", float64(st.Tasks))
	r.layer("native.levels", float64(st.Levels))
	st.KernelTasks.Each(func(kernel string, n int64) {
		if name := "native.kernel_tasks." + kernel; inCatalogue(name) {
			r.layer(name, float64(n))
		}
	})
	r.Labels["native.strategy"] = st.Strategy.String()
	r.Labels["native.kernel"] = st.Kernel.String()
}

func medianDur(stages []stageTimes, pick func(stageTimes) time.Duration) time.Duration {
	xs := make([]float64, len(stages))
	for i, s := range stages {
		xs[i] = float64(pick(s))
	}
	return time.Duration(median(xs))
}

func inCatalogue(name string) bool {
	for _, m := range perLayer {
		if m.Name == name {
			return true
		}
	}
	return false
}

// float32Sweep times forward+backward on a float32 copy of the factor's
// value plane for about d, returning the median sweep in milliseconds.
func (e *engine) float32Sweep(d time.Duration) (float64, error) {
	// Demote a shallow copy: Demote adds the float32 plane to its
	// receiver, and the measured factor must keep its resident size.
	shallow := &chol.Factor{Sym: e.sys.f.Sym, Panels: e.sys.f.Panels}
	opts := engineOptions()
	opts.Precision = native.PrecisionFloat32
	sv := native.NewSolver(shallow.Demote(), opts)
	defer sv.Close()
	b := e.or.rhs[0]
	x := sparse.NewBlock(b.N, b.M)
	var sweeps []float64
	for deadline := time.Now().Add(d); len(sweeps) < 3 || time.Now().Before(deadline); {
		st, err := sv.SolveInto(context.Background(), b, x)
		if err != nil {
			return 0, err
		}
		sweeps = append(sweeps, ms(st.Total()))
	}
	// A loose sanity bound only: the float32 factor error is ~κ·2⁻²⁴.
	if r := harness.RelResidual(e.sys.pr.A, x, b); !(r <= 1e-2) {
		return 0, fmt.Errorf("float32 sweep residual %g", r)
	}
	return median(sweeps), nil
}

// allocsPerSolve counts heap allocations per warm SolveInto the way
// testing.AllocsPerRun does — mallocs over the runs, rounded down — which
// is the definition the repository's "0 allocs/op warm" bar is stated in.
func (e *engine) allocsPerSolve() float64 {
	const runs = 10
	ctx := context.Background()
	b := e.or.rhs[0]
	solve := func() { e.sv.SolveInto(ctx, b, e.x) } //nolint:errcheck // the measured loop just verified this very call; only its allocations matter here
	solve()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		solve()
	}
	runtime.ReadMemStats(&m1)
	return float64((m1.Mallocs - m0.Mallocs) / runs)
}

// triadGBps runs a STREAM-style triad a[i] = b[i] + s·c[i] over three
// buffers of `bytes` each (the factor's size) on GOMAXPROCS goroutines,
// in this process, for about d. It is the hardware denominator of the
// sweeps; with a factor this small it is a cache-resident roofline (see
// README).
func triadGBps(bytes int64, d time.Duration) float64 {
	n := int(bytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i), 1
	}
	workers := runtime.GOMAXPROCS(0)
	pass := func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func(a, b, c []float64) {
				defer wg.Done()
				for i := range a {
					a[i] = b[i] + 3*c[i]
				}
			}(a[lo:hi], b[lo:hi], c[lo:hi])
		}
		wg.Wait()
	}
	pass() // touch every page before timing
	var best time.Duration
	for deadline := time.Now().Add(d); best == 0 || time.Now().Before(deadline); {
		t0 := time.Now()
		pass()
		if dt := time.Since(t0); best == 0 || dt < best {
			best = dt
		}
	}
	return float64(3*8*n) / best.Seconds() / 1e9
}
