package registry

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
)

// countingSource wraps src and counts its builds in builds (the
// singleflight assertion); a non-nil gate holds every build until it
// closes.
func countingSource(src Source, builds *atomic.Int32, gate chan struct{}) Source {
	return func() (*sparse.SymCSC, *chol.Factor, error) {
		builds.Add(1)
		if gate != nil {
			<-gate
		}
		return src()
	}
}

func gridSource(t testing.TB, nx, ny int) Source {
	t.Helper()
	src, err := Spec{Grid2D: fmt.Sprintf("%dx%d", nx, ny)}.Source()
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// mustResident registers id and waits until it is resident.
func mustResident(t testing.TB, r *Registry, id string, src Source) {
	t.Helper()
	if err := r.Register(id, src); err != nil {
		t.Fatalf("Register(%s): %v", id, err)
	}
	h, err := r.AcquireWait(id, nil)
	if err != nil {
		t.Fatalf("AcquireWait(%s): %v", id, err)
	}
	h.Release()
}

// TestParseGrid2D pins the one NXxNY parser: the whole string must
// match. fmt.Sscanf("%dx%d"), which it replaces, accepted every bad
// trailing-input case below as a 63×63 grid.
func TestParseGrid2D(t *testing.T) {
	for _, ok := range []string{"63x63", "63X63", "2x4096"} {
		if nx, ny, err := parseGrid2D(ok); err != nil || nx < 2 || ny < 2 {
			t.Errorf("parseGrid2D(%q) = %d, %d, %v; want accepted", ok, nx, ny, err)
		}
	}
	if nx, ny, _ := parseGrid2D("63X31"); nx != 63 || ny != 31 {
		t.Errorf(`parseGrid2D("63X31") = %d, %d`, nx, ny)
	}
	for _, bad := range []string{"63x63x63", "63x63junk", "63x", "x63", "63x63 ", " 63x63", "-3x4", "+3x4", "1x9", "9x1", "", "63", "99999999999999999999x9"} {
		if nx, ny, err := parseGrid2D(bad); err == nil {
			t.Errorf("parseGrid2D(%q) = %d, %d; want an error", bad, nx, ny)
		} else if !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Errorf("parseGrid2D(%q): error %q does not name the spec", bad, err)
		}
	}
}

func TestLifecycleAndTypedErrors(t *testing.T) {
	r := New(Config{})
	defer r.Close()

	if _, err := r.Acquire("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Acquire unknown: got %v, want ErrNotFound", err)
	}

	gate := make(chan struct{})
	var builds atomic.Int32
	src := countingSource(gridSource(t, 9, 9), &builds, gate)
	if err := r.Register("g", src); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("g"); !errors.Is(err, ErrBuilding) {
		t.Fatalf("Acquire while building: got %v, want ErrBuilding", err)
	}
	// Singleflight: a second Register of a building id must not start a
	// second build.
	if err := r.Register("g", src); err != nil {
		t.Fatal(err)
	}
	close(gate)
	h, err := r.AcquireWait("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1 (singleflight)", got)
	}
	// Resident re-register is also deduped.
	if err := r.Register("g", src); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("builds after resident re-register = %d, want 1", got)
	}

	// The handle actually solves.
	a := h.Matrix()
	x, err := h.Server().Solve(context.Background(), mesh.RandomRHS(a.N, 1, 1).Data)
	if err != nil {
		t.Fatalf("solve through handle: %v", err)
	}
	if len(x) != a.N {
		t.Fatalf("solution length %d, want %d", len(x), a.N)
	}
	h.Release()
	h.Release() // idempotent

	if err := r.Evict("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("g"); !errors.Is(err, ErrEvicted) {
		t.Fatalf("Acquire after evict: got %v, want ErrEvicted", err)
	}
	// Re-registering an evicted id rebuilds it.
	if err := r.Register("g", src); err != nil {
		t.Fatal(err)
	}
	h2, err := r.AcquireWait("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	h2.Release()
	if got := builds.Load(); got != 2 {
		t.Fatalf("builds after re-register = %d, want 2", got)
	}
}

func TestBuildFailureSurfacesAndRetries(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	boom := errors.New("boom")
	fail := func() (*sparse.SymCSC, *chol.Factor, error) {
		return nil, nil, boom
	}
	if err := r.Register("bad", fail); err != nil {
		t.Fatal(err)
	}
	_, err := r.AcquireWait("bad", nil)
	var be *BuildError
	if !errors.As(err, &be) || !errors.Is(err, boom) {
		t.Fatalf("got %v, want *BuildError wrapping boom", err)
	}
	if st := r.Stats(); st.BuildFailures != 1 {
		t.Fatalf("BuildFailures = %d, want 1", st.BuildFailures)
	}
	// Re-register retries with a working source.
	if err := r.Register("bad", gridSource(t, 5, 5)); err != nil {
		t.Fatal(err)
	}
	h, err := r.AcquireWait("bad", nil)
	if err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	h.Release()
}

// TestBudgetEvictsLRUIdle pins the acceptance criterion: ingesting N+1
// matrices under a budget sized for N evicts the least-recently-used
// idle matrix, and only that one.
func TestBudgetEvictsLRUIdle(t *testing.T) {
	// Measure one matrix's resident footprint, then build a budget that
	// holds exactly 3 of them (with slack for arena growth).
	probe := New(Config{})
	mustResident(t, probe, "probe", gridSource(t, 15, 15))
	one := probe.Stats().ResidentBytes
	probe.Close()
	if one <= 0 {
		t.Fatalf("probe footprint = %d, want > 0", one)
	}

	r := New(Config{MaxResidentBytes: 3*one + one/2})
	defer r.Close()
	for i := 0; i < 3; i++ {
		mustResident(t, r, fmt.Sprintf("m%d", i), gridSource(t, 15, 15))
	}
	// Touch m0 and m2 so m1 is the LRU idle entry.
	for _, id := range []string{"m0", "m2"} {
		h, err := r.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if st := r.Stats(); st.Resident != 3 || st.Evictions != 0 {
		t.Fatalf("pre-ingest stats = %+v, want 3 resident, 0 evictions", st)
	}
	// The 4th matrix exceeds the budget: m1 must be evicted, the rest
	// must survive.
	mustResident(t, r, "m3", gridSource(t, 15, 15))
	if _, err := r.Acquire("m1"); !errors.Is(err, ErrEvicted) {
		t.Fatalf("LRU matrix m1: got %v, want ErrEvicted", err)
	}
	for _, id := range []string{"m0", "m2", "m3"} {
		h, err := r.Acquire(id)
		if err != nil {
			t.Fatalf("Acquire(%s) after eviction round: %v", id, err)
		}
		h.Release()
	}
	st := r.Stats()
	if st.Resident != 3 || st.Evictions != 1 {
		t.Fatalf("post-ingest stats = %+v, want 3 resident, 1 eviction", st)
	}
	if st.ResidentBytes > r.cfg.MaxResidentBytes {
		t.Fatalf("resident bytes %d over budget %d", st.ResidentBytes, st.MaxResidentBytes)
	}
}

// TestOversizedMatrixIsProtected: a single matrix larger than the whole
// budget still becomes resident (the just-built entry is never evicted
// by its own arrival).
func TestOversizedMatrixIsProtected(t *testing.T) {
	r := New(Config{MaxResidentBytes: 1}) // nothing fits
	defer r.Close()
	mustResident(t, r, "big", gridSource(t, 9, 9))
	h, err := r.Acquire("big")
	if err != nil {
		t.Fatalf("oversized matrix not resident: %v", err)
	}
	h.Release()
}

// TestEvictionDrainsInFlightSolve pins the acceptance criterion: a
// matrix evicted while a solve is in flight stays alive until the solve
// returns, then its server is closed exactly once. Run under -race.
func TestEvictionDrainsInFlightSolve(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	mustResident(t, r, "g", gridSource(t, 15, 15))

	const clients = 8
	var wg sync.WaitGroup
	handles := make([]*Handle, clients)
	for i := range handles {
		h, err := r.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	start := make(chan struct{})
	errs := make([]error, clients)
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *Handle) {
			defer wg.Done()
			defer h.Release()
			<-start
			a := h.Matrix()
			for k := 0; k < 20; k++ {
				rhs := mesh.RandomRHS(a.N, 1, int64(100*i+k+1)).Data
				if _, err := h.Server().Solve(context.Background(), rhs); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, h)
	}
	close(start)
	// Evict mid-traffic: the entry drains; every outstanding solve must
	// still complete successfully.
	if err := r.Evict("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("g"); !errors.Is(err, ErrEvicted) {
		t.Fatalf("Acquire after evict: got %v, want ErrEvicted", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d solve failed across eviction: %v", i, err)
		}
	}
	// After the last Release the drained server must be closed: a direct
	// solve against it reports closure.
	deadline := time.After(5 * time.Second)
	for {
		st, err := r.Status("g")
		if err != nil {
			t.Fatal(err)
		}
		if st.Refs == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("refs never drained: %+v", st)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	r := New(Config{})
	mustResident(t, r, "g", gridSource(t, 9, 9))
	h, err := r.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Hold the handle briefly so Close must wait for the release.
		time.Sleep(20 * time.Millisecond)
		a := h.Matrix()
		if _, err := h.Server().Solve(context.Background(), mesh.RandomRHS(a.N, 1, 1).Data); err != nil {
			t.Errorf("solve during close drain: %v", err)
		}
		h.Release()
	}()
	r.Close()
	<-done
	if _, err := r.Acquire("g"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire after Close: got %v, want ErrClosed", err)
	}
	if err := r.Register("h", gridSource(t, 9, 9)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register after Close: got %v, want ErrClosed", err)
	}
}
