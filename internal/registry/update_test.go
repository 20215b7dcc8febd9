package registry

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"sptrsv/internal/chol"
	"sptrsv/internal/dense"
	"sptrsv/internal/mesh"
	"sptrsv/internal/native"
	"sptrsv/internal/prec"
	"sptrsv/internal/serve"
)

// scaledVals returns the entry's current values scaled by s (scaling an
// SPD matrix by s > 0 keeps it SPD, so the swap always factors cleanly).
func scaledVals(t *testing.T, r *Registry, id string, s float64) []float64 {
	t.Helper()
	h, err := r.Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	base := h.Matrix().Val
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = s * v
	}
	return out
}

func TestUpdateValuesSwapsGenerations(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	mustResident(t, r, "g", gridSource(t, 9, 9))

	// Pin the old generation with a handle, then swap.
	old, err := r.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	oldVals := slices.Clone(old.Matrix().Val)
	oldSrv := old.Server()

	want := scaledVals(t, r, "g", 2)
	if err := r.UpdateValues("g", want); err != nil {
		t.Fatalf("UpdateValues: %v", err)
	}

	// The pinned handle still sees the old values bitwise, and its
	// server still answers.
	if !slices.Equal(old.Matrix().Val, oldVals) {
		t.Fatal("pinned handle's values changed across the swap")
	}
	rhs := mesh.RandomRHS(old.Matrix().N, 1, 3)
	if _, err := oldSrv.Solve(context.Background(), rhs.Data); err != nil {
		t.Fatalf("solve on the drained-but-pinned old server: %v", err)
	}

	// A fresh acquire sees the new values and a new generation.
	nh, err := r.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(nh.Matrix().Val, want) {
		t.Fatal("new handle does not see the swapped values")
	}
	if nh.Server() == oldSrv {
		t.Fatal("new handle still leases the old server")
	}
	st, _ := r.Status("g")
	if st.Generation != 2 {
		t.Fatalf("generation = %d, want 2", st.Generation)
	}
	sts := r.Stats()
	if sts.Refactorizations != 1 {
		t.Fatalf("Refactorizations = %d, want 1", sts.Refactorizations)
	}
	if sts.Draining != 1 {
		t.Fatalf("Draining = %d, want 1 (old generation pinned)", sts.Draining)
	}
	nh.Release()

	// Releasing the last pin on the old generation closes its server:
	// a solve on it now fails with ErrServerClosed.
	old.Release()
	if sts := r.Stats(); sts.Draining != 0 {
		t.Fatalf("Draining after release = %d, want 0", sts.Draining)
	}
	if _, err := oldSrv.Solve(context.Background(), rhs.Data); !errors.Is(err, serve.ErrServerClosed) {
		t.Fatalf("solve on drained old server: got %v, want ErrServerClosed", err)
	}
}

func TestUpdateValuesTypedErrors(t *testing.T) {
	r := New(Config{})
	defer r.Close()

	if err := r.UpdateValues("nope", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: got %v, want ErrNotFound", err)
	}

	mustResident(t, r, "g", gridSource(t, 9, 9))

	var ve *ValuesError
	if err := r.UpdateValues("g", make([]float64, 3)); !errors.As(err, &ve) {
		t.Fatalf("short payload: got %v, want *ValuesError", err)
	} else if ve.Got != 3 {
		t.Fatalf("ValuesError.Got = %d, want 3", ve.Got)
	}

	// A non-SPD value set must fail loudly and leave the old generation
	// serving.
	vals := scaledVals(t, r, "g", -1)
	if err := r.UpdateValues("g", vals); err == nil {
		t.Fatal("negated (negative-definite) values: want a factorization error")
	}
	h, err := r.Acquire("g")
	if err != nil {
		t.Fatalf("Acquire after failed swap: %v", err)
	}
	st, _ := r.Status("g")
	if st.Generation != 1 {
		t.Fatalf("failed swap bumped generation to %d", st.Generation)
	}
	h.Release()

	if err := r.Evict("g"); err != nil {
		t.Fatal(err)
	}
	if err := r.UpdateValues("g", vals); !errors.Is(err, ErrEvicted) {
		t.Fatalf("evicted id: got %v, want ErrEvicted", err)
	}
}

// TestRejectedUpdatesKeepOldGeneration sends value sets that must be
// refused — the wrong length, a NaN, ±Inf (all *ValuesError, before any
// numeric work) and an indefinite set (dense.ErrNotPD from the
// refactorization) — and after each requires the resident generation to
// be the one that was there: same server, same generation number, no
// refactorization counted, and the same answer bit for bit.
func TestRejectedUpdatesKeepOldGeneration(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	mustResident(t, r, "g", gridSource(t, 9, 9))

	solve := func() (*serve.Server, []float64) {
		t.Helper()
		h, err := r.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		x, err := h.Server().Solve(context.Background(), mesh.RandomRHS(h.Matrix().N, 1, 7).Data)
		if err != nil {
			t.Fatal(err)
		}
		return h.Server(), x
	}
	srv, want := solve()
	good := scaledVals(t, r, "g", 1)
	at := func(i int, v float64) []float64 {
		vals := slices.Clone(good)
		vals[i] = v
		return vals
	}
	for _, bad := range []struct {
		what   string
		vals   []float64
		nonFin int // index of the non-finite value, -1 for none
		notPD  bool
	}{
		{"short", good[:len(good)-1], -1, false},
		{"NaN", at(3, math.NaN()), 3, false},
		{"+Inf", at(0, math.Inf(1)), 0, false},
		{"-Inf", at(len(good)-1, math.Inf(-1)), len(good) - 1, false},
		{"indefinite", scaledVals(t, r, "g", -1), -1, true},
	} {
		err := r.UpdateValues("g", bad.vals)
		var ve *ValuesError
		switch {
		case bad.notPD:
			var pe *dense.PivotError
			if !errors.Is(err, dense.ErrNotPD) || !errors.As(err, &pe) {
				t.Fatalf("%s values: got %v, want a *dense.PivotError", bad.what, err)
			}
		case !errors.As(err, &ve):
			t.Fatalf("%s values: got %v, want *ValuesError", bad.what, err)
		case bad.nonFin < 0 && ve.Got == ve.Want:
			t.Fatalf("%s values: %v does not report the length", bad.what, err)
		case bad.nonFin >= 0 && (ve.Got != ve.Want || ve.Index != bad.nonFin ||
			math.Float64bits(ve.Value) != math.Float64bits(bad.vals[bad.nonFin])):
			t.Fatalf("%s values: %+v does not name value %d", bad.what, ve, bad.nonFin)
		}
		st, _ := r.Status("g")
		if got, x := solve(); got != srv || st.Generation != 1 || r.Stats().Refactorizations != 0 || !slices.Equal(x, want) {
			t.Fatalf("after the rejected %s update: same server %v, generation %d, refactorizations %d, same answer %v",
				bad.what, got == srv, st.Generation, r.Stats().Refactorizations, slices.Equal(x, want))
		}
	}
}

// TestRegisterOptionsConflict is the singleflight regression test: a
// Register for a live id asking for different build options must fail
// with ErrOptionsConflict instead of silently keeping the old options,
// while a Register asking for the same options still singleflights.
func TestRegisterOptionsConflict(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	mustResident(t, r, "g", gridSource(t, 9, 9))

	// Same options: singleflight, no error, no rebuild.
	if err := r.Register("g", gridSource(t, 9, 9)); err != nil {
		t.Fatalf("same-options re-register: %v", err)
	}

	mixed := prec.PolicyMixed
	err := r.RegisterWith("g", gridSource(t, 9, 9), BuildOptions{Precision: &mixed})
	if !errors.Is(err, ErrOptionsConflict) {
		t.Fatalf("conflicting re-register: got %v, want ErrOptionsConflict", err)
	}

	// Evict + re-ingest with the new options is the documented path.
	if err := r.Evict("g"); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterWith("g", gridSource(t, 9, 9), BuildOptions{Precision: &mixed}); err != nil {
		t.Fatalf("re-register after evict: %v", err)
	}
	h, err := r.AcquireWait("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if got := h.Server().Precision(); got != native.PrecisionFloat32 {
		t.Fatalf("precision after re-ingest = %v, want float32", got)
	}
}

// TestHandleUseAfterReleasePanics pins the loud-failure contract of
// satellite handles: a released handle must never hand out a server that
// may be mid-teardown.
func TestHandleUseAfterReleasePanics(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	mustResident(t, r, "g", gridSource(t, 6, 6))
	h, err := r.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	h.Release() // idempotent, not a panic
	if h.ID() != "g" {
		t.Fatal("ID must stay readable after Release")
	}
	for _, use := range []struct {
		name string
		f    func()
	}{
		{"Server", func() { h.Server() }},
		{"Matrix", func() { h.Matrix() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after Release did not panic", use.name)
				}
			}()
			use.f()
		}()
	}
}

// TestSeparateBuildAndRefactorEWMAs pins satellite 3: millisecond-scale
// value swaps must not poison the full-build duration estimate that the
// 503 Retry-After is derived from.
func TestSeparateBuildAndRefactorEWMAs(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	mustResident(t, r, "g", gridSource(t, 31, 31))
	r.mu.Lock()
	buildEWMA := r.buildEWMA
	r.mu.Unlock()
	if buildEWMA <= 0 {
		t.Fatal("full build did not feed the build EWMA")
	}
	for i := 0; i < 8; i++ {
		if err := r.UpdateValues("g", scaledVals(t, r, "g", 1.5)); err != nil {
			t.Fatal(err)
		}
	}
	r.mu.Lock()
	after, refact := r.buildEWMA, r.refactorEWMA
	r.mu.Unlock()
	if after != buildEWMA {
		t.Fatalf("refactorizations moved the build EWMA: %v -> %v", buildEWMA, after)
	}
	if refact <= 0 {
		t.Fatal("refactorizations did not feed the refactorize EWMA")
	}
	if refact >= buildEWMA {
		t.Fatalf("refactorize EWMA %v not below build EWMA %v — separation is pointless if swaps are not cheaper", refact, buildEWMA)
	}
}

// TestConcurrentUpdateVsSolveHammer is the race-enabled swap hammer:
// value updates race a closed loop of solvers, and every answer must be
// bitwise identical to a solve against either the old or the new factor —
// never a blend — with zero dropped or errored requests. The two value
// sets alternate, so each worker checks its answer against the two
// possible references computed up front.
func TestConcurrentUpdateVsSolveHammer(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	mustResident(t, r, "g", gridSource(t, 15, 15))

	h, err := r.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	m := h.Matrix()
	sym := h.Server().Factor().Sym
	n := m.N
	valsA := slices.Clone(m.Val)
	valsB := make([]float64, len(valsA))
	for i, v := range valsA {
		valsB[i] = 2 * v
	}
	// Reference answers: one per value set, computed solo through the
	// same factorization kernels (the serve layer's bitwise-identity
	// contract makes batched answers equal solo answers).
	rhs := mesh.RandomRHS(n, 1, 99)
	refs := make(map[int][]float64)
	for i, vals := range [][]float64{valsA, valsB} {
		a := *m
		a.Val = vals
		f, err := chol.Factorize(&a, sym)
		if err != nil {
			t.Fatal(err)
		}
		sv := native.NewSolver(f, native.Options{})
		x, _ := sv.Solve(rhs)
		refs[i] = slices.Clone(x.Data)
		sv.Close()
	}
	h.Release()

	const (
		workers         = 4
		solvesPerWorker = 60
		swaps           = 30
	)
	var wg sync.WaitGroup
	errc := make(chan error, workers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			vals := valsA
			if i%2 == 0 {
				vals = valsB
			}
			if err := r.UpdateValues("g", vals); err != nil {
				errc <- err
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < solvesPerWorker; i++ {
				h, err := r.Acquire("g")
				if err != nil {
					errc <- err
					return
				}
				x, err := h.Server().Solve(context.Background(), rhs.Data)
				h.Release()
				if err != nil {
					errc <- err
					return
				}
				if !slices.Equal(x, refs[0]) && !slices.Equal(x, refs[1]) {
					errc <- errors.New("answer matches neither the old nor the new factor (a blend)")
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if st := r.Stats(); st.Refactorizations != swaps {
		t.Fatalf("Refactorizations = %d, want %d (zero dropped updates)", st.Refactorizations, swaps)
	}
}
