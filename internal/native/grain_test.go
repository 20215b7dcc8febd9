package native

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/core"
	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
)

// The tests in this file pin the grain controller's contract: subtree
// aggregation changes scheduling only — the solution is bitwise identical
// for every cutoff and worker count — and failures inside an aggregated
// subtree task are still attributed to the exact supernode that raised
// them. They are part of the -race suite (`make race`).

// grainSweep is the cutoff ladder the tests pin: per-supernode tasks,
// light aggregation, the derived default, and whole-tree collapse.
var grainSweep = []int{1, 64, 0, math.MaxInt}

func grainName(g int) string {
	switch g {
	case 0:
		return "derived"
	case math.MaxInt:
		return "inf"
	default:
		return fmt.Sprint(g)
	}
}

// TestGrainBitwiseIdentity runs the one-entry-row sweep (m=1) across the
// full grain × workers grid and demands solutions bitwise identical to the
// simulator's p=1 execution — the determinism guarantee must survive any
// task-boundary choice.
func TestGrainBitwiseIdentity(t *testing.T) {
	checkGrainBitwise(t, 1)
}

// TestStrategyBitwiseIdentity runs the same grid at the multi-RHS widths:
// m=4 is one full vector chunk of the row primitives, m=6 a chunk plus a
// pair, m=7 a chunk, a pair and a single. (The name predates the single
// schedule and the single multi-RHS kernel.)
func TestStrategyBitwiseIdentity(t *testing.T) {
	checkGrainBitwise(t, 4, 6, 7)
}

// checkGrainBitwise solves at each width m under every grain × workers
// combination and requires a task count within [1, NSuper], one dispatch
// census entry per supernode, and every entry bitwise equal to the
// simulator's p=1 answer.
func checkGrainBitwise(t *testing.T, widths ...int) {
	t.Helper()
	_, f := setupAmalgamated(t, grid2DProblem(17, 13))
	for _, m := range widths {
		b := mesh.RandomRHS(f.Sym.N, m, 7)
		want := simulatorP1Solve(t, f, b)
		for _, g := range grainSweep {
			for _, w := range []int{1, 2, 8} {
				sv := NewSolver(f, Options{Workers: w, grain: g})
				x, st, err := sv.SolveCtx(context.Background(), b)
				if err != nil {
					t.Fatal(err)
				}
				if st.Tasks < 1 || st.Tasks > f.Sym.NSuper {
					t.Fatalf("grain=%s workers=%d: task count %d", grainName(g), w, st.Tasks)
				}
				if got := st.KernelTasks.Total(); got != int64(f.Sym.NSuper) {
					t.Fatalf("m=%d: dispatch census %d, want one entry per supernode (%d)", m, got, f.Sym.NSuper)
				}
				for i, v := range x.Data {
					if v != want.Data[i] {
						t.Fatalf("m=%d grain=%s workers=%d: entry %d differs bitwise from simulator p=1",
							m, grainName(g), w, i)
					}
				}
				sv.Close()
			}
		}
	}
}

// TestGrainTaskCounts checks the schedule geometry at the cutoff
// extremes: grain 1 degenerates to one task per supernode, the derived
// cutoff collapses a real fraction of the tree, and an infinite cutoff leaves
// exactly one task per elimination-forest root.
func TestGrainTaskCounts(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(21, 21))
	b := mesh.RandomRHS(f.Sym.N, 1, 3)
	roots := 0
	for s := 0; s < f.Sym.NSuper; s++ {
		if f.Sym.SParent[s] < 0 {
			roots++
		}
	}

	sv := NewSolver(f, Options{Workers: 4, grain: 1})
	_, st, err := sv.SolveCtx(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks != f.Sym.NSuper || st.AggregatedTasks != 0 {
		t.Fatalf("grain=1: tasks=%d aggregated=%d, want %d/0", st.Tasks, st.AggregatedTasks, f.Sym.NSuper)
	}

	sv = NewSolver(f, Options{Workers: 4})
	_, st, err = sv.SolveCtx(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks >= f.Sym.NSuper || st.AggregatedTasks == 0 {
		t.Fatalf("derived grain did not aggregate: tasks=%d aggregated=%d of %d supernodes",
			st.Tasks, st.AggregatedTasks, f.Sym.NSuper)
	}

	sv = NewSolver(f, Options{Workers: 4, grain: math.MaxInt})
	_, st, err = sv.SolveCtx(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks != roots {
		t.Fatalf("grain=inf: tasks=%d, want one per root (%d)", st.Tasks, roots)
	}
}

// TestGrainNegativeDisables pins the documented escape hatch: a negative
// grain schedules one task per supernode.
func TestGrainNegativeDisables(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(9, 9))
	sv := NewSolver(f, Options{Workers: 2, grain: -1})
	if sv.Tasks() != f.Sym.NSuper {
		t.Fatalf("grain=-1: %d tasks, want %d", sv.Tasks(), f.Sym.NSuper)
	}
}

// TestDerivedGrain pins the cutoff grain 0 derives from the total solve
// work and the worker count: a top-of-tree skeleton of a few tasks per
// worker that grows with the pool and never changes the answer; a factor
// lighter than the cutoff's floor collapses to one task per tree and never
// starts a pool.
func TestDerivedGrain(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(63, 63))
	ctx := context.Background()
	for _, m := range []int{1, 5} {
		b := mesh.RandomRHS(f.Sym.N, m, 5)
		want, _, err := NewSolver(f, Options{Workers: 1}).SolveCtx(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		prev := 0
		for _, w := range []int{2, 3, 4, 8} {
			sv := NewSolver(f, Options{Workers: w})
			x, st, err := sv.SolveCtx(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			if sv.Tasks() < w || sv.Tasks() > 32*w {
				t.Fatalf("workers=%d: %d tasks of %d supernodes, want between workers and 32·workers",
					w, sv.Tasks(), f.Sym.NSuper)
			}
			if sv.Tasks() < prev {
				t.Fatalf("workers=%d: %d tasks, fewer than the %d of the smaller pool", w, sv.Tasks(), prev)
			}
			prev = sv.Tasks()
			if st.AggregatedTasks == 0 {
				t.Fatalf("workers=%d: derived cutoff aggregated nothing: %+v", w, st)
			}
			for i, v := range x.Data {
				if v != want.Data[i] {
					t.Fatalf("m=%d workers=%d: entry %d differs bitwise from the Workers: 1 answer", m, w, i)
				}
			}
			sv.Close()
		}
	}

	// A connected grid is one elimination tree, here lighter than the
	// cutoff's floor: one task.
	_, small := setupAmalgamated(t, grid2DProblem(3, 3))
	sv := NewSolver(small, Options{Workers: 4})
	defer sv.Close()
	if sv.Tasks() != 1 {
		t.Fatalf("3×3 grid: %d tasks, want the whole tree in one", sv.Tasks())
	}
	if _, _, err := sv.SolveCtx(ctx, mesh.RandomRHS(small.Sym.N, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if sv.exec.Started() {
		t.Fatal("3×3 grid: a one-task schedule started a worker pool instead of running inline")
	}
}

// TestStrategyAutoResolved pins the stub the frozen benchmark spells:
// StrategyAuto names the one schedule, and Stats reports it as subtree
// with no barrier levels.
func TestStrategyAutoResolved(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(17, 13))
	sv := NewSolver(f, Options{Workers: 4, Strategy: StrategyAuto})
	defer sv.Close()
	_, st, err := sv.SolveCtx(context.Background(), mesh.RandomRHS(f.Sym.N, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Strategy != StrategySubtree || st.Strategy.String() != "subtree" || st.Levels != 0 {
		t.Fatalf("stats report strategy %s with %d levels, want subtree with 0", st.Strategy, st.Levels)
	}
}

// aggregatedInterior returns a supernode that is an interior (non-root)
// member of a multi-supernode task, so faults there exercise attribution
// inside an aggregated subtree.
func aggregatedInterior(sv *Solver) (int, bool) {
	for t := 0; t < sv.Tasks(); t++ {
		if m := sv.tasks.Members(t); len(m) > 1 {
			return m[0], true
		}
	}
	return 0, false
}

// TestAggregatedPanicNamesSupernode collapses the whole tree into
// single-subtree tasks and panics a hook deep inside one of them: the
// recovered *TaskPanicError must name the member supernode, not the
// aggregated task.
func TestAggregatedPanicNamesSupernode(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(21, 21))
	probe := NewSolver(f, Options{Workers: 4, grain: math.MaxInt})
	target, ok := aggregatedInterior(probe)
	if !ok {
		t.Skip("no aggregated task on this mesh")
	}
	for _, phase := range []TaskPhase{ForwardPhase, BackwardPhase} {
		sv := NewSolver(f, Options{Workers: 4, grain: math.MaxInt,
			TaskHook: func(_ context.Context, p TaskPhase, s int) error {
				if p == phase && s == target {
					panic("deliberate aggregated-subtree panic")
				}
				return nil
			}})
		_, st, err := sv.SolveCtx(context.Background(), mesh.RandomRHS(f.Sym.N, 2, 1))
		if st.AggregatedTasks == 0 {
			t.Fatalf("%s: schedule not aggregated (stats %+v)", phase, st)
		}
		var pe *TaskPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: got %v, want *TaskPanicError", phase, err)
		}
		if pe.Phase != phase || pe.Task != target {
			t.Fatalf("%s: panic attributed to %s supernode %d, want supernode %d",
				phase, pe.Phase, pe.Task, target)
		}
	}
}

// TestStrategyFaultAttribution panics a hook at a fixed mid-tree
// supernode under every grain × phase combination: the recovered
// *TaskPanicError must name that supernode however the cutoff grouped it
// into tasks. Then it runs the fault cases of a root split into RHS-lane
// windows (splitFaultAttribution).
func TestStrategyFaultAttribution(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(21, 21))
	target := f.Sym.NSuper / 2
	for _, g := range grainSweep {
		for _, phase := range []TaskPhase{ForwardPhase, BackwardPhase} {
			sv := NewSolver(f, Options{Workers: 4, grain: g,
				TaskHook: func(_ context.Context, p TaskPhase, s int) error {
					if p == phase && s == target {
						panic("deliberate grain-sweep panic")
					}
					return nil
				}})
			_, _, err := sv.SolveCtx(context.Background(), mesh.RandomRHS(f.Sym.N, 2, 1))
			var pe *TaskPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("grain=%s %s: got %v, want *TaskPanicError", grainName(g), phase, err)
			}
			if pe.Phase != phase || pe.Task != target {
				t.Fatalf("grain=%s %s: panic attributed to %s supernode %d, want supernode %d",
					grainName(g), phase, pe.Phase, pe.Task, target)
			}
			sv.Close()
		}
	}
	splitFaultAttribution(t, f)
}

// splitFaultAttribution runs the fault cases of a supernode split into
// RHS-lane windows: at m = 30 on two workers, grain 1 splits the root
// into the windows [0, 16) and [16, 30). A bad root pivot must return the
// one-worker run's *BreakdownError, a hook panic in either window a
// *TaskPanicError naming the root, a non-finite answer in one window the
// one-worker run's ScanFinite error, and a cancel inside a window a
// *CancelledError with the goroutine count back where it was.
func splitFaultAttribution(t *testing.T, f *chol.Factor) {
	const m = 30
	root := f.Sym.NSuper - 1
	ctx := context.Background()
	b := mesh.RandomRHS(f.Sym.N, m, 5)
	split := func(hook TaskHook) *Solver {
		t.Helper()
		sv := NewSolver(f, Options{Workers: 2, grain: 1, TaskHook: hook})
		if caps := sv.windows; caps == nil || caps[len(caps)-1] != 2 {
			t.Fatalf("grain=1 workers=2: the root's window cap is not 2 (caps %v)", caps)
		}
		return sv
	}
	sameBreakdown := func(what string, b *sparse.Block) {
		t.Helper()
		_, _, want := NewSolver(f, Options{Workers: 1}).SolveCtx(ctx, b)
		sv := split(nil)
		defer sv.Close()
		_, st, err := sv.SolveCtx(ctx, b)
		var got, w *BreakdownError
		if !errors.As(err, &got) || !errors.As(want, &w) {
			t.Fatalf("%s: split run returned %v, one worker %v; want *BreakdownError from both", what, err, want)
		}
		if got.Supernode != w.Supernode || got.Column != w.Column {
			t.Fatalf("%s: split run names supernode %d column %d, one worker supernode %d column %d",
				what, got.Supernode, got.Column, w.Supernode, w.Column)
		}
		if st.Tasks != sv.tasks.Tasks()+1 {
			t.Fatalf("%s: %d tasks, want the %d of the forest plus one window", what, st.Tasks, sv.tasks.Tasks())
		}
	}

	// A zero pivot mid-root.
	panel := f.Panels[root]
	ns, width := f.Sym.Height(root), f.Sym.Width(root)
	j := width / 2
	saved := panel[j*ns+j]
	panel[j*ns+j] = 0
	sameBreakdown("bad root pivot", b)
	panel[j*ns+j] = saved

	// An infinite right-hand side in lane 20 of the root's first row: only
	// the second window's answer is non-finite.
	poisoned := mesh.RandomRHS(f.Sym.N, m, 5)
	poisoned.Data[f.Sym.Super[root]*m+20] = math.Inf(1)
	sameBreakdown("non-finite answer in one window", poisoned)

	// A hook panic in the first, then the second window to start.
	for _, phase := range []TaskPhase{ForwardPhase, BackwardPhase} {
		for which := int32(0); which < 2; which++ {
			var calls atomic.Int32
			sv := split(func(_ context.Context, p TaskPhase, s int) error {
				if p == phase && s == root && calls.Add(1)-1 == which {
					panic("deliberate window panic")
				}
				return nil
			})
			_, _, err := sv.SolveCtx(ctx, b)
			sv.Close()
			var pe *TaskPanicError
			if !errors.As(err, &pe) || pe.Phase != phase || pe.Task != root {
				t.Fatalf("%s window %d: got %v, want *TaskPanicError naming %s supernode %d", phase, which, err, phase, root)
			}
		}
	}

	// A cancel inside a window: the window cancels the solve and waits for
	// the cancellation to reach it.
	base := runtime.NumGoroutine()
	cctx, cancel := context.WithCancel(ctx)
	sv := split(func(hctx context.Context, p TaskPhase, s int) error {
		if p == ForwardPhase && s == root {
			cancel()
			<-hctx.Done()
			return hctx.Err()
		}
		return nil
	})
	_, _, err := sv.SolveCtx(cctx, b)
	sv.Close()
	cancel()
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("cancel inside a window: got %v, want *CancelledError", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after Close, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAggregatedBreakdownNamesSupernode poisons the panel of an interior
// member of an aggregated task: the *BreakdownError must name that
// supernode.
func TestAggregatedBreakdownNamesSupernode(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(21, 21))
	probe := NewSolver(f, Options{Workers: 4, grain: math.MaxInt})
	target, ok := aggregatedInterior(probe)
	if !ok {
		t.Skip("no aggregated task on this mesh")
	}
	panel := f.Panels[target]
	saved := append([]float64(nil), panel...)
	for i := range panel {
		panel[i] = math.NaN()
	}
	defer copy(panel, saved)
	sv := NewSolver(f, Options{Workers: 4, grain: math.MaxInt})
	_, _, err := sv.SolveCtx(context.Background(), mesh.RandomRHS(f.Sym.N, 2, 2))
	var be *BreakdownError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BreakdownError", err)
	}
	if be.Supernode != target {
		t.Fatalf("breakdown names supernode %d, want %d", be.Supernode, target)
	}
}

// TestGrainRepeatedSolvesReuseArena checks the reuse contract across
// widths: alternating RHS widths re-sizes the arena, and returning to a
// previous width keeps results bitwise stable.
func TestGrainRepeatedSolvesReuseArena(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(15, 15))
	sv := NewSolver(f, Options{Workers: 4})
	b1 := mesh.RandomRHS(f.Sym.N, 1, 11)
	b4 := mesh.RandomRHS(f.Sym.N, 4, 12)
	x1, st, err := sv.SolveCtx(context.Background(), b1)
	if err != nil {
		t.Fatal(err)
	}
	if st.AllocBytes <= 0 {
		t.Fatalf("arena footprint not reported: %+v", st)
	}
	for rep := 0; rep < 3; rep++ {
		if _, _, err := sv.SolveCtx(context.Background(), b4); err != nil {
			t.Fatal(err)
		}
		x, _, err := sv.SolveCtx(context.Background(), b1)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range x.Data {
			if v != x1.Data[i] {
				t.Fatalf("rep %d: entry %d changed after arena re-size round-trip", rep, i)
			}
		}
	}
}

// TestSolveIntoMatchesSolveCtx pins that the zero-allocation entry point
// and the allocating wrapper produce identical bits.
func TestSolveIntoMatchesSolveCtx(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(13, 13))
	sv := NewSolver(f, Options{Workers: 4})
	b := mesh.RandomRHS(f.Sym.N, 3, 9)
	want, _, err := sv.SolveCtx(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	x := want.Clone()
	x.Fill(math.NaN()) // SolveInto must fully overwrite the target
	if _, err := sv.SolveInto(context.Background(), b, x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x.Data {
		if v != want.Data[i] {
			t.Fatalf("entry %d differs between SolveInto and SolveCtx", i)
		}
	}
}

// TestSolveIntoRejectsBadShapes checks the target-shape guard: a solution
// block of the wrong width or size is a *DimensionError naming which.
func TestSolveIntoRejectsBadShapes(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(5, 5))
	sv := NewSolver(f, Options{})
	b := mesh.RandomRHS(f.Sym.N, 2, 1)
	for _, tc := range []struct {
		x         *sparse.Block
		what      string
		got, want int
	}{
		{mesh.RandomRHS(f.Sym.N, 3, 1), "solution columns", 3, 2},
		{mesh.RandomRHS(f.Sym.N+1, 2, 1), "solution rows", f.Sym.N + 1, f.Sym.N},
	} {
		_, err := sv.SolveInto(context.Background(), b, tc.x)
		var de *DimensionError
		if !errors.As(err, &de) {
			t.Fatalf("%s mismatch: got %v, want *DimensionError", tc.what, err)
		}
		if de.What != tc.what || de.Got != tc.got || de.Want != tc.want {
			t.Fatalf("got %+v, want %s %d (want %d)", de, tc.what, tc.got, tc.want)
		}
	}
}

// TestPartialSumBlockIsSimulatorB pins the backward partial-sum block to
// the simulator's b: the bitwise identity with its p=1 run needs them
// equal.
func TestPartialSumBlockIsSimulatorB(t *testing.T) {
	if b := core.DefaultOptions().B; partialSumBlock != b {
		t.Fatalf("partialSumBlock = %d, simulator b = %d", partialSumBlock, b)
	}
}

// TestClosedSolverRejectsSolves pins the Close contract.
func TestClosedSolverRejectsSolves(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(9, 9))
	sv := NewSolver(f, Options{Workers: 4})
	b := mesh.RandomRHS(f.Sym.N, 1, 5)
	if _, _, err := sv.SolveCtx(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	sv.Close()
	sv.Close() // idempotent
	if _, _, err := sv.SolveCtx(context.Background(), b); err == nil {
		t.Fatal("solve on a closed solver did not error")
	}
}
