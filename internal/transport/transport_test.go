package transport

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/mesh"
	"sptrsv/internal/native"
	"sptrsv/internal/registry"
	"sptrsv/internal/rowops"
	"sptrsv/internal/serve"
	"sptrsv/internal/sparse"
)

// newTestStack stands up a registry + HTTP service with one resident
// grid matrix and returns the test server and registry.
func newTestStack(t *testing.T, id string, nx, ny int, cfg registry.Config) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg := registry.New(cfg)
	t.Cleanup(reg.Close)
	ts := httptest.NewServer(New(reg))
	t.Cleanup(ts.Close)
	if id != "" {
		src, err := registry.Spec{Grid2D: fmt.Sprintf("%dx%d", nx, ny)}.Source()
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(id, src); err != nil {
			t.Fatal(err)
		}
		h, err := reg.AcquireWait(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	return ts, reg
}

func doSolve(t *testing.T, ts *httptest.Server, id string, b *sparse.Block, query string) (*sparse.Block, *http.Response) {
	t.Helper()
	body := EncodeBlock(nil, b)
	resp, err := http.Post(ts.URL+"/v1/solve/"+id+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body = io.NopCloser(bytes.NewReader(out))
		return nil, resp
	}
	x, err := DecodeBlock(out)
	if err != nil {
		t.Fatalf("decoding solve response: %v", err)
	}
	return x, resp
}

// TestHTTPSolveBitwiseIdenticalToDirect pins the acceptance criterion:
// a solve served over HTTP is bitwise identical to serve.Server.Solve
// on the same registered matrix.
func TestHTTPSolveBitwiseIdenticalToDirect(t *testing.T) {
	ts, reg := newTestStack(t, "g", 15, 15, registry.Config{})
	h, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	a := h.Matrix()
	for seed := int64(1); seed <= 3; seed++ {
		rhs := mesh.RandomRHS(a.N, 1, seed)
		// Direct in-process solve through the same registered server.
		want, err := h.Server().Solve(context.Background(), append([]float64(nil), rhs.Data...))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := doSolve(t, ts, "g", rhs, "")
		if got == nil {
			t.Fatalf("seed %d: HTTP solve failed", seed)
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("seed %d: row %d differs bitwise: direct %x, http %x",
					seed, i, math.Float64bits(want[i]), math.Float64bits(got.Data[i]))
			}
		}
	}
}

// TestMultiRHSRoundTrip: an m-column body fans out through the
// coalescing server and each column matches the single-RHS answer
// bitwise.
func TestMultiRHSRoundTrip(t *testing.T) {
	ts, reg := newTestStack(t, "g", 15, 15, registry.Config{})
	h, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	n := h.Matrix().N
	const m = 4
	blk := sparse.NewBlock(n, m)
	for j := 0; j < m; j++ {
		col := mesh.RandomRHS(n, 1, int64(j+1))
		for i := 0; i < n; i++ {
			blk.Data[i*m+j] = col.Data[i]
		}
	}
	x, _ := doSolve(t, ts, "g", blk, "")
	if x == nil {
		t.Fatal("multi-RHS solve failed")
	}
	for j := 0; j < m; j++ {
		col := mesh.RandomRHS(n, 1, int64(j+1))
		want, err := h.Server().Solve(context.Background(), col.Data)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(want[i]) != math.Float64bits(x.Data[i*m+j]) {
				t.Fatalf("col %d row %d differs bitwise", j, i)
			}
		}
	}
}

func TestStatusCodeMapping(t *testing.T) {
	ts, reg := newTestStack(t, "g", 9, 9, registry.Config{})
	n := 9 * 9

	get := func(method, path string, body io.Reader, ct string) *http.Response {
		req, err := http.NewRequest(method, ts.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// Unknown matrix → 404.
	rhs := sparse.NewBlock(n, 1)
	if _, resp := doSolve(t, ts, "nope", rhs, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown matrix: %d, want 404", resp.StatusCode)
	}
	// Wrong-shaped RHS → 400.
	if _, resp := doSolve(t, ts, "g", sparse.NewBlock(n+1, 1), ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad shape: %d, want 400", resp.StatusCode)
	}
	// Malformed body → 400.
	if resp := get("POST", "/v1/solve/g", strings.NewReader("garbage"), ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %d, want 400", resp.StatusCode)
	}
	// Bad ingest spec → 400, a trailing third dimension included (it
	// used to ingest a 9×9 grid).
	for _, spec := range []string{`{"grid2d":"bogus"}`, `{"grid2d":"9x9x9"}`} {
		if resp := get("PUT", "/v1/matrix/x", strings.NewReader(spec), "application/json"); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad spec %s: %d, want 400", spec, resp.StatusCode)
		}
	}
	// Eviction → subsequent solve 410.
	if resp := get("DELETE", "/v1/matrix/g", nil, ""); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("evict: %d, want 204", resp.StatusCode)
	}
	if _, resp := doSolve(t, ts, "g", rhs, ""); resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted matrix: %d, want 410", resp.StatusCode)
	}
	_ = reg
}

// TestBuildingMaps503 pins the ErrBuilding → 503 mapping with a
// deliberately slow source.
func TestBuildingMaps503(t *testing.T) {
	ts, reg := newTestStack(t, "", 0, 0, registry.Config{})
	gate := make(chan struct{})
	defer close(gate)
	src, err := registry.Spec{Grid2D: "9x9"}.Source()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("slow", gatedSource(src, gate)); err != nil {
		t.Fatal(err)
	}
	rhs := sparse.NewBlock(81, 1)
	_, resp := doSolve(t, ts, "slow", rhs, "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("building matrix: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// gatedSource holds every build of src until gate closes.
func gatedSource(src registry.Source, gate chan struct{}) registry.Source {
	return func() (*sparse.SymCSC, *chol.Factor, error) {
		<-gate
		return src()
	}
}

// TestOverloadMaps429: a server with a tiny queue and a stalled solve
// path sheds load with 429.
func TestOverloadMaps429(t *testing.T) {
	// MaxBatch 1 + QueueDepth 1, and a hook that holds every sweep until
	// the first 429 has been seen: one request is in the sweep, one in
	// the queue, and the rest of the 64 must be refused.
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	defer open()
	defer time.AfterFunc(10*time.Second, open).Stop() // a missing 429 fails the test instead of hanging it
	ts, _ := newTestStack(t, "g", 15, 15, registry.Config{
		Serve: serve.Config{MaxBatch: 1, QueueDepth: 1, Workers: 1,
			TaskHook: func(ctx context.Context, _ native.TaskPhase, _ int) error {
				select {
				case <-release:
				case <-ctx.Done():
				}
				return nil
			}},
	})
	n := 15 * 15
	rhs := mesh.RandomRHS(n, 1, 1)
	body := EncodeBlock(nil, rhs)
	saw429 := false
	done := make(chan bool, 64)
	for i := 0; i < 64; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/solve/g", "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				done <- false
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			done <- resp.StatusCode == http.StatusTooManyRequests
		}()
	}
	for i := 0; i < 64; i++ {
		if <-done {
			saw429 = true
			open()
		}
	}
	if !saw429 {
		t.Fatal("64 concurrent requests against a held sweep and a queue of 1: no 429")
	}
}

func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{registry.ErrNotFound, http.StatusNotFound},
		{registry.ErrEvicted, http.StatusGone},
		{registry.ErrBuilding, http.StatusServiceUnavailable},
		{registry.ErrClosed, http.StatusServiceUnavailable},
		{serve.ErrServerClosed, http.StatusServiceUnavailable},
		{&serve.OverloadError{QueueDepth: 4}, http.StatusTooManyRequests},
		{fmt.Errorf("wrapped: %w", &serve.OverloadError{}), http.StatusTooManyRequests},
		{&registry.BuildError{ID: "x", Err: io.EOF}, http.StatusBadGateway},
		{io.EOF, http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestSolveTimeoutQueryMaps504: an unmeetable ?timeout deadline turns
// into 504 Gateway Timeout.
func TestSolveTimeoutQueryMaps504(t *testing.T) {
	ts, _ := newTestStack(t, "g", 15, 15, registry.Config{
		// A long linger guarantees the 1ns deadline expires while the
		// request waits for batch formation.
		Serve: serve.Config{Linger: 50 * time.Millisecond},
	})
	rhs := mesh.RandomRHS(15*15, 1, 1)
	_, resp := doSolve(t, ts, "g", rhs, "?timeout=1ns")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: %d, want 504", resp.StatusCode)
	}
	// And a malformed timeout is rejected outright.
	_, resp = doSolve(t, ts, "g", rhs, "?timeout=banana")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout: %d, want 400", resp.StatusCode)
	}
}

// TestIngestWaitAndMetrics drives the full ingest → solve → scrape
// cycle over HTTP only.
func TestIngestWaitAndMetrics(t *testing.T) {
	ts, _ := newTestStack(t, "", 0, 0, registry.Config{})
	resp, err := http.DefaultClient.Do(mustReq(t, "PUT", ts.URL+"/v1/matrix/grid?wait=1",
		strings.NewReader(`{"grid2d":"9x9"}`), "application/json"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest wait: %d (%s), want 200", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"resident"`)) {
		t.Fatalf("ingest status body %s, want resident", body)
	}
	if x, r := doSolve(t, ts, "grid", mesh.RandomRHS(81, 1, 7), ""); x == nil {
		t.Fatalf("solve after ingest: %d", r.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"sptrsv_registry_resident_matrices 1",
		`sptrsv_native_vector_isa{isa="` + rowops.VectorISA() + `"} 1`,
		`sptrsv_serve_accepted_total{matrix="grid"} 1`,
		`sptrsv_serve_latency_seconds_bucket{matrix="grid",le="+Inf"} 1`,
		// One single-RHS solve dispatches the flat kernel for both sweeps.
		`sptrsv_kernel_tasks_total{matrix="grid",kernel="flat1"}`,
	} {
		if !strings.Contains(string(met), want) {
			t.Errorf("metrics missing %q:\n%s", want, met)
		}
	}
}

func mustReq(t *testing.T, method, url string, body io.Reader, ct string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	return req
}
