package harness

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/mesh"
	"sptrsv/internal/native"
	"sptrsv/internal/refine"
)

func factorFor(t testing.TB, pr *Prepared) *chol.Factor {
	t.Helper()
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// panicHook sabotages one forward task — the factor itself stays healthy,
// so the sequential fallback rung must succeed.
func panicHook(target int) native.TaskHook {
	return func(_ context.Context, p native.TaskPhase, s int) error {
		if p == native.ForwardPhase && s == target {
			panic("robust-test: injected panic")
		}
		return nil
	}
}

// suiteOrSmall is the full mesh suite, or the one small grid under -short
// (preparing and factoring the suite is moderately expensive).
func suiteOrSmall(t testing.TB) []*Prepared {
	if testing.Short() {
		return []*Prepared{prepSmall(t)}
	}
	return SuitePrepared()
}

// TestSolveRobustNativePath: on every suite problem a healthy solve is
// answered by the native engine itself, at 8 workers, with a relative
// residual of at most 1e-10.
func TestSolveRobustNativePath(t *testing.T) {
	for _, pr := range suiteOrSmall(t) {
		f := factorFor(t, pr)
		b := mesh.RandomRHS(pr.Sym.N, 4, 1)
		res, err := SolveRobust(context.Background(), pr, f, b, native.Options{Workers: 8}, 1e-10)
		if err != nil {
			t.Fatalf("%s: %v", pr.Name, err)
		}
		if res.Path != PathNative || res.NativeErr != nil || res.Refine != nil {
			t.Fatalf("%s: healthy solve took path %q (nativeErr=%v)", pr.Name, res.Path, res.NativeErr)
		}
		if res.Residual > 1e-10 {
			t.Fatalf("%s: residual %g", pr.Name, res.Residual)
		}
	}
}

// TestSolveRobustFallbackMeshSuite is the acceptance check: an injected
// task panic on every suite problem must degrade to the sequential rung
// and still produce a relative residual below 1e-10.
func TestSolveRobustFallbackMeshSuite(t *testing.T) {
	for _, pr := range suiteOrSmall(t) {
		f := factorFor(t, pr)
		b := mesh.RandomRHS(pr.Sym.N, 2, 1)
		opts := native.Options{Workers: 8, TaskHook: panicHook(pr.Sym.NSuper / 2)}
		res, err := SolveRobust(context.Background(), pr, f, b, opts, 1e-10)
		if err != nil {
			t.Fatalf("%s: %v", pr.Name, err)
		}
		if res.Path != PathSequentialRefine {
			t.Fatalf("%s: path %q, want fallback", pr.Name, res.Path)
		}
		var pe *native.TaskPanicError
		if !errors.As(res.NativeErr, &pe) {
			t.Fatalf("%s: NativeErr = %v, want *TaskPanicError", pr.Name, res.NativeErr)
		}
		if res.Refine == nil || res.Refine.Reason != refine.ReasonConverged {
			t.Fatalf("%s: refine result %+v", pr.Name, res.Refine)
		}
		if !(res.Residual < 1e-10) {
			t.Fatalf("%s: fallback residual %g", pr.Name, res.Residual)
		}
	}
}

func TestSolveRobustCancelledNoFallback(t *testing.T) {
	pr := prepSmall(t)
	f := factorFor(t, pr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveRobust(ctx, pr, f, mesh.RandomRHS(pr.Sym.N, 1, 2), native.Options{Workers: 4}, 1e-10)
	var ce *native.CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("cancelled ladder returned %v, want *CancelledError", err)
	}
	if res.Refine != nil {
		t.Fatal("cancelled ladder must not run the fallback rung")
	}
}

// TestSolveRobustGoroutineFlat is the leak regression: every SolveRobust
// call used to construct a native solver and abandon its parked worker
// pool to the finalizer, so a serving loop accumulated goroutines without
// bound. Now the per-call solver is closed before returning, and repeated
// robust solves keep the goroutine count flat.
func TestSolveRobustGoroutineFlat(t *testing.T) {
	pr := prepSmall(t)
	f := factorFor(t, pr)
	b := mesh.RandomRHS(pr.Sym.N, 1, 1)
	solve := func() {
		if _, err := SolveRobust(context.Background(), pr, f, b, native.Options{Workers: 4}, 1e-10); err != nil {
			t.Fatal(err)
		}
	}
	solve() // settle one-time runtime goroutines before measuring
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		solve()
	}
	// Closed pools shut down asynchronously (workers notice the closed
	// quit channel); give them a moment before declaring a leak.
	var now int
	for wait := 0; wait < 100; wait++ {
		if now = runtime.NumGoroutine(); now <= base+2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if now > base+2 {
		t.Fatalf("goroutines grew from %d to %d across 50 robust solves", base, now)
	}
}

// TestSolveRobustWithWarmSolver pins the serving-layer contract: many
// robust solves may share one caller-owned solver, which stays open and
// keeps producing native-path answers.
func TestSolveRobustWithWarmSolver(t *testing.T) {
	pr := prepSmall(t)
	f := factorFor(t, pr)
	sv := native.NewSolver(f, native.Options{Workers: 4})
	defer sv.Close()
	for i := 0; i < 5; i++ {
		b := mesh.RandomRHS(pr.Sym.N, 1, int64(i+1))
		res, err := SolveRobustWith(context.Background(), pr, sv, b, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		if res.Path != PathNative {
			t.Fatalf("solve %d took path %q on a healthy warm solver", i, res.Path)
		}
	}
	// The ladder must not have closed the caller's solver.
	if _, _, err := sv.SolveCtx(context.Background(), mesh.RandomRHS(pr.Sym.N, 1, 99)); err != nil {
		t.Fatalf("warm solver unusable after SolveRobustWith: %v", err)
	}
}

func TestSolveRobustLadderExhausted(t *testing.T) {
	// Poison the factor itself: both rungs fail and the error names both.
	pr := prepSmall(t)
	f := factorFor(t, pr)
	target := pr.Sym.NSuper / 2
	for i := range f.Panels[target] {
		f.Panels[target][i] = math.NaN()
	}
	res, err := SolveRobust(context.Background(), pr, f, mesh.RandomRHS(pr.Sym.N, 1, 3), native.Options{Workers: 4}, 1e-10)
	if err == nil {
		t.Fatal("poisoned factor must exhaust the ladder")
	}
	var be *native.BreakdownError
	if !errors.As(res.NativeErr, &be) || be.Supernode != target {
		t.Fatalf("NativeErr = %v, want *BreakdownError for supernode %d", res.NativeErr, target)
	}
	if res.Path != PathSequentialRefine || res.Refine == nil || res.Refine.Converged {
		t.Fatalf("result %+v", res)
	}
}
