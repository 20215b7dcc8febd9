// Command nativebench closes the loop between the paper's virtual-time
// model and real hardware: it runs the same sparse triangular solve
// through the Cray-T3D simulator (predicted speedup at p processors) and
// through the goroutine-based shared-memory engine of internal/native
// (measured wall-clock speedup at p workers), printing one
// predicted-versus-measured table per problem.
//
// Measured speedup depends on the host: with GOMAXPROCS cores available,
// a 2-D mesh problem large enough to amortize task hand-off shows >1×
// from 2 workers up to roughly the core count, while the simulator's
// column reports what the paper's cost model predicts for the same
// elimination-tree parallelism on the T3D.
//
// With -inject the benchmark becomes a fault drill instead: a fault spec
// (see internal/faultinject) is armed against one supernode task, the
// hardened SolveCtx path runs once to show the structured error it
// surfaces, and then harness.SolveRobust runs with the fault still active
// to show how far the degradation ladder recovers.
//
// Usage:
//
//	nativebench
//	nativebench -side 201 -nrhs 8 -workers 1,2,4,8 -reps 5
//	nativebench -cube 17          # 3-D mesh instead of the 2-D grid
//	nativebench -grain 1          # disable subtree aggregation
//	nativebench -cpuprofile cpu.pprof -memprofile mem.pprof
//	nativebench -side 63 -inject panic:3         # forward task 3 panics
//	nativebench -side 63 -inject nan:10          # poison supernode 10's panel
//	nativebench -side 63 -inject stall:0:30s -timeout 2s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/faultinject"
	"sptrsv/internal/harness"
	"sptrsv/internal/machine"
	"sptrsv/internal/mesh"
	"sptrsv/internal/native"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nativebench: ")
	var (
		side    = flag.Int("side", 127, "2-D grid side length (n = side²)")
		cube    = flag.Int("cube", 0, "if > 0, use a cube³ 3-D mesh instead of the 2-D grid")
		nrhs    = flag.Int("nrhs", 4, "number of right-hand sides")
		workers = flag.String("workers", "1,2,4,8", "comma-separated processor/worker counts (powers of two)")
		reps    = flag.Int("reps", 3, "native repetitions per count (best time kept)")
		inject  = flag.String("inject", "", "fault spec KIND:SUPERNODE[:DUR][@backward] (panic, error, stall, nan); runs the fault drill instead of the benchmark")
		timeout = flag.Duration("timeout", 0, "solve deadline for the fault drill (0 = none)")
		grain   = flag.Int("grain", 0, "subtree-aggregation work cutoff (0 = derived from work and workers, negative = one task per supernode)")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile of the benchmark to this file")
		memprof = flag.String("memprofile", "", "write a heap profile to this file after the benchmark")
	)
	flag.Parse()
	counts, err := parseCounts(*workers)
	if err != nil {
		log.Fatal(err)
	}
	prob := mesh.Problem{
		Name: fmt.Sprintf("GRID2D-%d", *side),
		A:    mesh.Grid2D(*side, *side), Geom: mesh.Grid2DGeometry(*side, *side),
	}
	if *cube > 0 {
		prob = mesh.Problem{
			Name: fmt.Sprintf("CUBE-%d", *cube),
			A:    mesh.Grid3D(*cube, *cube, *cube), Geom: mesh.Grid3DGeometry(*cube, *cube, *cube),
		}
	}
	if *inject != "" {
		if err := faultDrill(harness.Prepare(prob), *inject, *nrhs, counts[len(counts)-1], *timeout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	fmt.Printf("Predicted (virtual Cray T3D, p processors) vs measured (this host,\n")
	fmt.Printf("%d cores, p worker goroutines, vector ISA %s) speedup of the parallel FBsolve.\n\n",
		runtime.GOMAXPROCS(0), native.VectorISA())
	pr := harness.Prepare(prob)
	table, err := harness.NativeVsSimTable(pr, counts, harness.NativeConfig{
		NRHS: *nrhs, Reps: *reps, Grain: *grain, Model: machine.T3D(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table)
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		runtime.GC() // surface only retained allocations (the solver arenas)
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
	}
}

// faultDrill arms the injection, shows the structured error SolveCtx
// surfaces, then lets harness.SolveRobust climb the degradation ladder
// with the fault still active.
func faultDrill(pr *harness.Prepared, spec string, nrhs, workers int, timeout time.Duration) error {
	inj, err := faultinject.Parse(spec)
	if err != nil {
		return err
	}
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		return err
	}
	if _, err := inj.Poison(f); err != nil { // no-op unless KindNaN; fault stays armed
		return err
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	fmt.Printf("%s: N = %d, supernodes = %d, workers = %d\n", pr.Name, pr.Sym.N, pr.Sym.NSuper, workers)
	fmt.Printf("injecting %s\n\n", inj)
	opts := native.Options{Workers: workers, TaskHook: inj.Hook()}
	b := mesh.RandomRHS(pr.Sym.N, nrhs, 1)
	sv := native.NewSolver(f, opts)

	t0 := time.Now()
	_, _, serr := sv.SolveCtx(ctx, b.Clone())
	fmt.Printf("SolveCtx: %-12s after %s: %v\n", classify(serr), time.Since(t0).Round(time.Millisecond), serr)

	t0 = time.Now()
	res, rerr := harness.SolveRobust(ctx, pr, f, b, opts, 1e-10)
	if rerr != nil {
		verdict := "ladder exhausted"
		var ce *native.CancelledError
		if errors.As(rerr, &ce) {
			verdict = "aborted (no fallback on cancellation)"
		}
		fmt.Printf("SolveRobust: %s after %s: %v\n", verdict, time.Since(t0).Round(time.Millisecond), rerr)
		return nil
	}
	fmt.Printf("SolveRobust: recovered via %q after %s, residual = %.3g\n",
		res.Path, time.Since(t0).Round(time.Millisecond), res.Residual)
	if res.NativeErr != nil {
		fmt.Printf("  native rung failed with: %v\n", res.NativeErr)
	}
	return nil
}

// classify names the structured error category SolveCtx returned.
func classify(err error) string {
	var (
		be *native.BreakdownError
		ce *native.CancelledError
		pe *native.TaskPanicError
		ie *faultinject.InjectedError
	)
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &be):
		return "breakdown"
	case errors.As(err, &ce):
		return "cancelled"
	case errors.As(err, &pe):
		return "task-panic"
	case errors.As(err, &ie):
		return "task-error"
	default:
		return "error"
	}
}

// parseCounts parses the -workers list, requiring powers of two (the
// simulator's subtree-to-subcube mapping needs them).
func parseCounts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad worker count %q: %w", f, err)
		}
		if v <= 0 || v&(v-1) != 0 {
			return nil, fmt.Errorf("worker count %d is not a power of two", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty worker list")
	}
	return out, nil
}
