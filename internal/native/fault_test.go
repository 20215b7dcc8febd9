package native

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
)

// The tests in this file pin the hardened scheduler's failure semantics:
// a panicking task returns an error instead of deadlocking the pool, a
// cancelled context aborts promptly, breakdown is structured and named,
// and the success path through SolveCtx stays bitwise identical to Solve.
// They are part of the -race suite (`make race`).

func TestPanickingTaskReturnsError(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(21, 21))
	for _, phase := range []TaskPhase{ForwardPhase, BackwardPhase} {
		target := f.Sym.NSuper / 2
		sv := NewSolver(f, Options{Workers: 8, TaskHook: func(_ context.Context, p TaskPhase, s int) error {
			if p == phase && s == target {
				panic("deliberate test panic")
			}
			return nil
		}})
		b := mesh.RandomRHS(f.Sym.N, 2, 1)
		x, _, err := sv.SolveCtx(context.Background(), b)
		if err == nil || x != nil {
			t.Fatalf("%s: panicking task did not surface an error", phase)
		}
		var pe *TaskPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: error %v is not a *TaskPanicError", phase, err)
		}
		if pe.Phase != phase || pe.Task != target {
			t.Fatalf("%s: panic attributed to %s task %d, want task %d", phase, pe.Phase, pe.Task, target)
		}
	}
}

func TestTaskErrorPropagatesFirst(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(15, 15))
	sentinel := errors.New("injected task failure")
	sv := NewSolver(f, Options{Workers: 4, TaskHook: func(_ context.Context, p TaskPhase, s int) error {
		if p == BackwardPhase && s == 0 {
			return sentinel
		}
		return nil
	}})
	_, _, err := sv.SolveCtx(context.Background(), mesh.RandomRHS(f.Sym.N, 1, 2))
	if !errors.Is(err, sentinel) {
		t.Fatalf("injected error not propagated: got %v", err)
	}
}

// TestStrategyHookErrorUnwinds checks the failure path end to end: a hook
// error at a mid-tree supernode surfaces promptly, and the same solver —
// same pool, same arena — answers bitwise right on the next solve.
func TestStrategyHookErrorUnwinds(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(17, 13))
	boom := errors.New("deliberate hook failure")
	target := f.Sym.NSuper / 3
	for _, g := range grainSweep {
		fail := true
		sv := NewSolver(f, Options{Workers: 4, grain: g,
			TaskHook: func(_ context.Context, p TaskPhase, s int) error {
				if fail && p == ForwardPhase && s == target {
					return boom
				}
				return nil
			}})
		b := mesh.RandomRHS(f.Sym.N, 1, 9)
		if _, _, err := sv.SolveCtx(context.Background(), b); !errors.Is(err, boom) {
			t.Fatalf("grain=%s: got %v, want the hook error", grainName(g), err)
		}
		fail = false
		want := simulatorP1Solve(t, f, b)
		x, _, err := sv.SolveCtx(context.Background(), b)
		if err != nil {
			t.Fatalf("grain=%s: solver unusable after failed sweep: %v", grainName(g), err)
		}
		for i, v := range x.Data {
			if v != want.Data[i] {
				t.Fatalf("grain=%s: entry %d differs after recovery", grainName(g), i)
			}
		}
		sv.Close()
	}
}

func TestCancelledContextAbortsPromptly(t *testing.T) {
	// A large mesh with a stalling task: the deadline must surface as a
	// CancelledError long before the stall would naturally end.
	_, f := setupAmalgamated(t, grid2DProblem(41, 41))
	sv := NewSolver(f, Options{Workers: 4, TaskHook: func(ctx context.Context, p TaskPhase, s int) error {
		if p == ForwardPhase && s == f.Sym.NSuper-1 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(30 * time.Second):
				return nil
			}
		}
		return nil
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := sv.SolveCtx(ctx, mesh.RandomRHS(f.Sym.N, 1, 3))
	elapsed := time.Since(start)
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("cancelled solve returned %v, want *CancelledError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancellation cause not visible through Unwrap: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s — the pool did not unwind promptly", elapsed)
	}
}

func TestPreCancelledContext(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(9, 9))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := NewSolver(f, Options{Workers: 4}).SolveCtx(ctx, mesh.RandomRHS(f.Sym.N, 1, 4))
	var ce *CancelledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context returned %v", err)
	}
}

func TestNaNPanelYieldsBreakdownError(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(13, 13))
	target := f.Sym.NSuper / 3
	panel := f.Panels[target]
	saved := append([]float64(nil), panel...)
	for i := range panel {
		panel[i] = math.NaN()
	}
	defer func() { copy(panel, saved) }()
	_, _, err := NewSolver(f, Options{Workers: 8}).SolveCtx(context.Background(), mesh.RandomRHS(f.Sym.N, 2, 5))
	var be *BreakdownError
	if !errors.As(err, &be) {
		t.Fatalf("NaN panel returned %v, want *BreakdownError", err)
	}
	if be.Supernode != target {
		t.Fatalf("breakdown names supernode %d, want %d", be.Supernode, target)
	}
	if !math.IsNaN(be.Pivot) {
		t.Fatalf("breakdown value %v, want NaN", be.Pivot)
	}
}

func TestZeroPivotYieldsBreakdownError(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(11, 11))
	target := f.Sym.NSuper - 1 // root supernode: reached only after the rest succeed
	ns := f.Sym.Height(target)
	old := f.Panels[target][0]
	f.Panels[target][0] = 0 // first diagonal entry of the panel
	defer func() { f.Panels[target][0] = old }()
	_, _, err := NewSolver(f, Options{Workers: 4}).SolveCtx(context.Background(), mesh.RandomRHS(f.Sym.N, 1, 6))
	var be *BreakdownError
	if !errors.As(err, &be) {
		t.Fatalf("zero pivot returned %v, want *BreakdownError", err)
	}
	if be.Supernode != target || be.Column != f.Sym.Super[target] || be.Pivot != 0 {
		t.Fatalf("breakdown = %+v (ns=%d), want supernode %d column %d pivot 0", be, ns, target, f.Sym.Super[target])
	}
}

// TestPivotUnderflowInDemotionYieldsBreakdownError pins the pivot guard
// on the widened value: a diagonal entry of 1e-60 is a usable float64
// pivot but demotes to 0, so the float64 solver must answer while the
// float32 solver names that supernode and column with the pivot it would
// actually have divided by — in both kernels, on a column inside a forward
// block (not its first).
func TestPivotUnderflowInDemotionYieldsBreakdownError(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, shape := range [][2]int{{64, 16}, {300, 4}} {
		h, w := shape[0], shape[1]
		f := trapezoidFactor(t, rng, h, w)
		target := trapezoidSupernode(f.Sym, h, w)
		j := w/2 + 1
		f.Panels[target][j*h+j] = 1e-60 // before NewSolver demotes the plane
		for _, m := range []int{1, 3, 8} {
			b := mesh.RandomRHS(f.Sym.N, m, int64(m))
			if _, _, err := NewSolver(f, Options{Workers: 1}).SolveCtx(context.Background(), b); err != nil {
				t.Fatalf("shape %d×%d m=%d: float64 solve failed on a finite pivot: %v", h, w, m, err)
			}
			sv := NewSolver(f, Options{Workers: 1, Precision: PrecisionFloat32})
			_, _, err := sv.SolveCtx(context.Background(), b)
			var be *BreakdownError
			if !errors.As(err, &be) {
				t.Fatalf("shape %d×%d m=%d: underflowed float32 pivot returned %v, want *BreakdownError", h, w, m, err)
			}
			if be.Supernode != target || be.Column != f.Sym.Super[target]+j || be.Pivot != 0 {
				t.Fatalf("shape %d×%d m=%d: breakdown = %+v, want supernode %d column %d pivot 0",
					h, w, m, be, target, f.Sym.Super[target]+j)
			}
		}
	}
}

func TestSolveCtxBitwiseMatchesSolve(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(17, 13))
	b := mesh.RandomRHS(f.Sym.N, 4, 7)
	want, _ := NewSolver(f, Options{Workers: 1}).Solve(b)
	for _, w := range []int{1, 2, 3, 8} {
		x, st, err := NewSolver(f, Options{Workers: w}).SolveCtx(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		if st.Supernodes != f.Sym.NSuper {
			t.Fatalf("workers=%d: stats %+v", w, st)
		}
		for i, v := range x.Data {
			if v != want.Data[i] {
				t.Fatalf("workers=%d: entry %d differs bitwise through SolveCtx", w, i)
			}
		}
	}
}

func TestSolveCtxRejectsWrongRHSSize(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(5, 5))
	_, _, err := NewSolver(f, Options{}).SolveCtx(context.Background(), sparse.NewBlock(f.Sym.N+1, 1))
	if err == nil {
		t.Fatal("mismatched RHS did not return an error")
	}
}

func TestHookContextCancelledOnSiblingFailure(t *testing.T) {
	// When one task fails, a sibling task blocked in its hook must be
	// released through the sweep context — otherwise the pool would hang
	// waiting for the stalled worker.
	_, f := setupAmalgamated(t, grid2DProblem(31, 31))
	if f.Sym.NSuper < 4 {
		t.Skip("not enough supernodes")
	}
	leaves := 0
	for s := 0; s < f.Sym.NSuper; s++ {
		if len(f.Sym.SChildren[s]) == 0 {
			leaves++
		}
	}
	if leaves < 2 {
		t.Skip("need at least two leaves")
	}
	released := make(chan struct{})
	var first int32
	sv := NewSolver(f, Options{Workers: 4, TaskHook: func(ctx context.Context, p TaskPhase, s int) error {
		if p != ForwardPhase {
			return nil
		}
		switch atomic.AddInt32(&first, 1) {
		case 1:
			// First task: stall until the sweep context is cancelled.
			select {
			case <-ctx.Done():
				close(released)
				return ctx.Err()
			case <-time.After(30 * time.Second):
				return errors.New("stalled hook was never released")
			}
		case 2:
			return errors.New("sibling failure")
		}
		return nil
	}})
	start := time.Now()
	_, _, err := sv.SolveCtx(context.Background(), mesh.RandomRHS(f.Sym.N, 1, 8))
	if err == nil {
		t.Fatal("expected an error")
	}
	select {
	case <-released:
	default:
		t.Fatal("stalled hook was not released by the sweep cancellation")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("unwind took %s", time.Since(start))
	}
}

// TestOffDiagonalInfNamesLowestEntry plants +Inf off the diagonal of one
// supernode's panel with every pivot intact, so no pivot guard fires and
// only the check of the stored answers can catch it. At 1, 3 and 8
// workers and m ∈ {1, 30} the solve must return the *BreakdownError that
// a serial scan of the simulator's p=1 answer names: the lowest
// non-finite entry, whichever task found one first.
func TestOffDiagonalInfNamesLowestEntry(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(21, 17))
	for _, target := range []int{0, f.Sym.NSuper / 3, f.Sym.NSuper - 2} {
		ns, w := f.Sym.Height(target), f.Sym.Width(target)
		if ns < 2 {
			t.Fatalf("supernode %d is %d×%d: no entry below its first pivot", target, ns, w)
		}
		at := ns - 1 // the last row of the first column: below the triangle, or inside it for a root
		saved := f.Panels[target][at]
		f.Panels[target][at] = math.Inf(1)
		for _, m := range []int{1, 30} {
			b := mesh.RandomRHS(f.Sym.N, m, int64(target+m))
			want := f.ScanFinite(simulatorP1Solve(t, f, b))
			var wantBe *BreakdownError
			if !errors.As(want, &wantBe) {
				t.Fatalf("supernode %d m=%d: the serial scan of the simulator's answer found %v, want a *BreakdownError", target, m, want)
			}
			for _, workers := range []int{1, 3, 8} {
				sv := NewSolver(f, Options{Workers: workers})
				_, _, err := sv.SolveCtx(context.Background(), b)
				sv.Close()
				var be *BreakdownError
				if !errors.As(err, &be) || be.Supernode != wantBe.Supernode || be.Column != wantBe.Column ||
					math.Float64bits(be.Pivot) != math.Float64bits(wantBe.Pivot) {
					t.Fatalf("supernode %d m=%d workers=%d: got %v, want %v", target, m, workers, err, want)
				}
			}
		}
		f.Panels[target][at] = saved
	}
}
