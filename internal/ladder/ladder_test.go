package ladder_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"sptrsv/internal/chol"
	"sptrsv/internal/harness"
	"sptrsv/internal/ladder"
	"sptrsv/internal/mesh"
	"sptrsv/internal/native"
	"sptrsv/internal/prec"
	"sptrsv/internal/refine"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// fixture is one matrix behind one rung list. armed switches on a hook
// that panics in one forward task of every native solver built from it,
// fallback included; the factors stay healthy.
type fixture struct {
	pr    *harness.Prepared
	sv    *native.Solver
	rungs []ladder.Rung
	guard *prec.Guard // nil on a float64 list
	armed atomic.Bool
}

func gridProblem() *harness.Prepared {
	return harness.Prepare(mesh.Problem{
		Name: "g2d-13", A: mesh.Grid2D(13, 13), Geom: mesh.Grid2DGeometry(13, 13),
	})
}

// hilbertProblem builds the n×n Hilbert matrix (κ₁ ≈ 1.6e13 at n = 10):
// SPD, so Cholesky succeeds, but far beyond the κ·2⁻²⁴ contraction
// horizon, so refinement on a float32 factor is guaranteed to stagnate.
func hilbertProblem(n int) *harness.Prepared {
	t := sparse.NewTriplet(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			t.Add(i, j, 1/float64(i+j+1))
		}
	}
	return &harness.Prepared{Name: fmt.Sprintf("HILBERT-%d", n), A: t.Compile(), Sym: symbolic.Dense(n)}
}

// newFixture factorizes pr and builds the float64 list, or — mixed — the
// demoted solver, its guard and the mixed list.
func newFixture(t *testing.T, pr *harness.Prepared, mixed bool) *fixture {
	t.Helper()
	fx := &fixture{pr: pr}
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		t.Fatal(err)
	}
	target := pr.Sym.NSuper / 2
	opts := native.Options{Workers: 2, TaskHook: func(_ context.Context, p native.TaskPhase, s int) error {
		if fx.armed.Load() && p == native.ForwardPhase && s == target {
			panic("ladder-test: injected panic")
		}
		return nil
	}}
	if !mixed {
		fx.sv = native.NewSolver(f, opts)
		fx.rungs = ladder.Float64(fx.sv)
	} else {
		opts.Precision = native.PrecisionFloat32
		fx.sv = native.NewSolver(f.Demote(), opts)
		fx.guard = prec.NewGuard(pr.A, pr.Sym, opts)
		t.Cleanup(fx.guard.Close)
		fx.rungs = fx.guard.Rungs(fx.sv)
	}
	t.Cleanup(fx.sv.Close)
	return fx
}

// TestRun drives both rung lists, at width 1 and at a batch width,
// through every way a climb can end.
func TestRun(t *testing.T) {
	type outcome struct {
		fx  *fixture
		b   *sparse.Block
		tol float64
		res ladder.Result
		err error
	}
	firstCause := func(t *testing.T, o outcome, target any) {
		t.Helper()
		if len(o.res.Tried) < 2 || !errors.As(o.res.Tried[0].Err, target) {
			t.Fatalf("tried %+v: first cause is not %T", o.res.Tried, target)
		}
	}
	answered := func(t *testing.T, o outcome, path ladder.Path) ladder.Attempt {
		t.Helper()
		if o.err != nil {
			t.Fatal(o.err)
		}
		last := o.res.Tried[len(o.res.Tried)-1]
		if o.res.Path != path || last.Path != path || last.Err != nil {
			t.Fatalf("path %q (tried %+v), want %q", o.res.Path, o.res.Tried, path)
		}
		if chk := harness.RelResidual(o.fx.pr.A, o.res.X, o.b); !(chk <= o.tol) || !(o.res.Residual <= o.tol) {
			t.Fatalf("reported residual %.3g, recomputed %.3g", o.res.Residual, chk)
		}
		return last
	}
	cases := []struct {
		name    string
		mixed   bool
		hilbert bool    // the ill-conditioned matrix with a consistent RHS
		tol     float64 // 0: 1e-10
		arm     bool    // panic in rung one (and every other native sweep)
		cancel  bool    // context cancelled before the climb
		poison  bool    // one NaN in the right-hand side: no rung can answer
		check   func(t *testing.T, o outcome)
	}{
		{name: "float64/healthy", check: func(t *testing.T, o outcome) {
			if a := answered(t, o, ladder.PathNative); len(o.res.Tried) != 1 || a.Iters != 0 {
				t.Fatalf("healthy climb tried %+v", o.res.Tried)
			}
		}},
		{name: "float64/panic", arm: true, check: func(t *testing.T, o outcome) {
			if a := answered(t, o, ladder.PathSequentialRefine); a.Reason != refine.ReasonConverged {
				t.Fatalf("sequential rung stopped with %q", a.Reason)
			}
			firstCause(t, o, new(*native.TaskPanicError))
		}},
		{name: "float64/cancelled", cancel: true, check: func(t *testing.T, o outcome) {
			var ce *native.CancelledError
			if !errors.As(o.err, &ce) || len(o.res.Tried) != 1 {
				t.Fatalf("err %v after %+v, want *CancelledError after rung one only", o.err, o.res.Tried)
			}
		}},
		{name: "float64/exhausted", poison: true, check: func(t *testing.T, o outcome) {
			if o.err == nil || o.res.Path != "" || len(o.res.Tried) != 2 {
				t.Fatalf("poisoned RHS: path %q, err %v", o.res.Path, o.err)
			}
			for _, want := range []string{"native: ", "sequential+refine: "} {
				if !strings.Contains(o.err.Error(), want) {
					t.Fatalf("exhaustion error %q does not name %q", o.err, want)
				}
			}
		}},
		// 1e-4 is within a bare float32 sweep's reach; 1e-10 is not.
		{name: "mixed/healthy", mixed: true, tol: 1e-4, check: func(t *testing.T, o outcome) {
			if a := answered(t, o, ladder.PathNative); len(o.res.Tried) != 1 || a.Iters != 0 {
				t.Fatalf("healthy climb tried %+v", o.res.Tried)
			}
		}},
		{name: "mixed/refined", mixed: true, check: func(t *testing.T, o outcome) {
			if a := answered(t, o, ladder.PathMixedRefine); len(o.res.Tried) != 1 || a.Iters < 1 || a.Iters > 4 {
				t.Fatalf("refined climb tried %+v, want 1–4 iterations on rung one", o.res.Tried)
			}
			if o.fx.guard.ExtraBytes() != 0 {
				t.Fatal("float64 fallback was built on a well-conditioned problem")
			}
		}},
		{name: "mixed/panic", mixed: true, arm: true, check: func(t *testing.T, o outcome) {
			answered(t, o, ladder.PathFloat64Fallback)
			firstCause(t, o, new(*native.TaskPanicError))
			if o.res.Tried[0].Reason != "" {
				t.Fatalf("a failed first sweep reports refinement reason %q", o.res.Tried[0].Reason)
			}
		}},
		{name: "mixed/stagnation", mixed: true, hilbert: true, check: func(t *testing.T, o outcome) {
			answered(t, o, ladder.PathFloat64Fallback)
			// The reason serve reports as sptrsv_refine_fallback_total.
			if r := o.res.Tried[0].Reason; r != refine.ReasonStagnated && r != refine.ReasonNonFinite {
				t.Fatalf("f32 refinement stopped with %q, want stagnation or non-finite", r)
			}
			// The degraded matrix now holds both planes; the budget must see it.
			if want := o.fx.pr.Sym.NnzL * 8; o.fx.guard.ExtraBytes() != want {
				t.Fatalf("ExtraBytes = %d, want %d (the float64 factor)", o.fx.guard.ExtraBytes(), want)
			}
		}},
		{name: "mixed/cancelled", mixed: true, cancel: true, check: func(t *testing.T, o outcome) {
			var ce *native.CancelledError
			if !errors.As(o.err, &ce) || len(o.res.Tried) != 1 {
				t.Fatalf("err %v after %+v, want *CancelledError after rung one only", o.err, o.res.Tried)
			}
			if o.fx.guard.ExtraBytes() != 0 {
				t.Fatal("a cancelled climb started the float64 factorization")
			}
		}},
		{name: "mixed/exhausted", mixed: true, poison: true, check: func(t *testing.T, o outcome) {
			if o.err == nil || o.res.Path != "" || len(o.res.Tried) != 3 {
				t.Fatalf("poisoned RHS: path %q, err %v", o.res.Path, o.err)
			}
			if n := strings.Count(o.err.Error(), "float64-fallback: "); n != 2 || !strings.Contains(o.err.Error(), "native: ") {
				t.Fatalf("exhaustion error %q does not name all three rungs", o.err)
			}
		}},
	}
	for _, tc := range cases {
		for _, m := range []int{1, 5} {
			t.Run(fmt.Sprintf("%s/m=%d", tc.name, m), func(t *testing.T) {
				pr := gridProblem()
				b := mesh.RandomRHS(pr.A.N, m, 7)
				if tc.hilbert {
					// A consistent RHS (b = A·1) keeps ‖x‖ moderate, so the
					// float64 side can genuinely reach 1e-10.
					pr = hilbertProblem(10)
					b = sparse.NewBlock(pr.A.N, m)
					pr.A.MulBlock(mesh.OnesRHS(pr.A.N, m), b)
				}
				if tc.poison {
					b.Data[(pr.A.N/2)*m] = math.NaN()
				}
				fx := newFixture(t, pr, tc.mixed)
				fx.armed.Store(tc.arm)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if tc.cancel {
					cancel()
				}
				o := outcome{fx: fx, b: b, tol: tc.tol}
				if o.tol == 0 {
					o.tol = 1e-10
				}
				o.res, o.err = ladder.Run(ctx, pr.A, fx.rungs, b, o.tol, nil)
				tc.check(t, o)

				// The climb left the caller's warm solver open and healthy,
				// and a second climb takes the same path (a built fallback
				// is reused, not rebuilt).
				fx.armed.Store(false)
				if _, err := fx.sv.SolveInto(context.Background(), b, sparse.NewBlock(b.N, b.M)); err != nil && !tc.poison {
					t.Fatalf("warm solver unusable after the climb: %v", err)
				}
				fx.armed.Store(tc.arm)
				again, err := ladder.Run(ctx, pr.A, fx.rungs, b, o.tol, nil)
				if again.Path != o.res.Path || (err == nil) != (o.err == nil) {
					t.Fatalf("second climb: path %q err %v, first: path %q err %v", again.Path, err, o.res.Path, o.err)
				}
			})
		}
	}
}

// TestRunIntoScratch: a climb handed scratch answers in it — the batch
// path of the serving layer — and bit for bit what a climb that
// allocates answers.
func TestRunIntoScratch(t *testing.T) {
	fx := newFixture(t, gridProblem(), true)
	b := mesh.RandomRHS(fx.pr.A.N, 6, 3)
	ws := &ladder.Scratch{X: sparse.NewBlock(b.N, b.M), R: sparse.NewBlock(b.N, b.M)}
	ws.X.Fill(math.NaN()) // stale contents must not leak into the answer
	got, err := ladder.Run(context.Background(), fx.pr.A, fx.rungs[:1], b, 1e-10, ws)
	if err != nil || got.X != ws.X {
		t.Fatalf("scratch climb: err %v, X aliases scratch: %v", err, got.X == ws.X)
	}
	want, err := ladder.Run(context.Background(), fx.pr.A, fx.rungs, b, 1e-10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Path != want.Path || got.X.MaxAbsDiff(want.X) != 0 {
		t.Fatalf("scratch climb (%s) differs from allocating climb (%s)", got.Path, want.Path)
	}
}

// TestMeshSuite is the acceptance check on every suite problem (the one
// small grid under -short): a healthy climb is answered by the native
// engine itself, at 8 workers, with a relative residual of at most
// 1e-10; with a task panic injected it degrades to the sequential rung
// and still meets 1e-10.
func TestMeshSuite(t *testing.T) {
	suite := []*harness.Prepared{gridProblem()}
	if !testing.Short() {
		suite = harness.SuitePrepared()
	}
	factors := make([]*chol.Factor, len(suite))
	for i, pr := range suite {
		f, err := chol.Factorize(pr.A, pr.Sym)
		if err != nil {
			t.Fatal(err)
		}
		factors[i] = f
	}
	for name, inject := range map[string]bool{"healthy": false, "injected panic": true} {
		t.Run(name, func(t *testing.T) {
			for i, pr := range suite {
				target := pr.Sym.NSuper / 2
				sv := native.NewSolver(factors[i], native.Options{Workers: 8, TaskHook: func(_ context.Context, p native.TaskPhase, s int) error {
					if inject && p == native.ForwardPhase && s == target {
						panic("ladder-test: injected panic")
					}
					return nil
				}})
				res, err := ladder.Run(context.Background(), pr.A, ladder.Float64(sv), mesh.RandomRHS(pr.Sym.N, 4, 1), 1e-10, nil)
				sv.Close()
				want := ladder.PathNative
				if inject {
					want = ladder.PathSequentialRefine
				}
				if err != nil || res.Path != want || !(res.Residual <= 1e-10) {
					t.Fatalf("%s: path %q, residual %g, err %v; want %q", pr.Name, res.Path, res.Residual, err, want)
				}
				var pe *native.TaskPanicError
				if inject && !errors.As(res.Tried[0].Err, &pe) {
					t.Fatalf("%s: native rung abandoned for %v, want *TaskPanicError", pr.Name, res.Tried[0].Err)
				}
			}
		})
	}
}
