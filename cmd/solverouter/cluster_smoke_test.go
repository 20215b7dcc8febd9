package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"sptrsv/internal/mesh"
	"sptrsv/internal/registry"
	"sptrsv/internal/sparse"
	"sptrsv/internal/transport"
)

// TestClusterSmoke is the `make clustersmoke` job and the PR's
// acceptance bar: three real solved daemons behind a real solverouter,
// concurrent solve traffic at the router, one backend SIGKILLed
// mid-stream — and every single request must still be answered with a
// solution bitwise identical to the in-process solve. Latency may
// spike during the failover window; correctness may not.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping cluster smoke in -short mode")
	}
	if runtime.GOOS == "windows" {
		t.Skip("smoke relies on POSIX signal semantics")
	}

	dir := t.TempDir()
	solvedBin := filepath.Join(dir, "solved")
	routerBin := filepath.Join(dir, "solverouter")
	// The child binaries are race-instrumented too, so `make clustersmoke`
	// exercises the daemons' concurrency, not just the test harness's.
	for bin, pkg := range map[string]string{solvedBin: "../solved", routerBin: "."} {
		build := exec.Command("go", "build", "-race", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	// Three backends on ephemeral ports.
	type proc struct {
		cmd    *exec.Cmd
		base   string
		stderr *bytes.Buffer
	}
	start := func(bin string, args ...string) *proc {
		t.Helper()
		cmd := exec.Command(bin, args...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		sc := bufio.NewScanner(stdout)
		if !sc.Scan() {
			t.Fatalf("no listen line from %s; stderr:\n%s", bin, stderr.String())
		}
		line := sc.Text()
		const marker = "listening on "
		i := strings.Index(line, marker)
		if i < 0 {
			t.Fatalf("unexpected first line %q from %s", line, bin)
		}
		go io.Copy(io.Discard, stdout)
		return &proc{cmd: cmd, base: "http://" + strings.TrimSpace(line[i+len(marker):]), stderr: &stderr}
	}

	backends := make(map[string]*proc, 3)
	var urls []string
	for i := 0; i < 3; i++ {
		p := start(solvedBin, "-addr", "127.0.0.1:0")
		backends[p.base] = p
		urls = append(urls, p.base)
	}
	router := start(routerBin,
		"-addr", "127.0.0.1:0",
		"-backends", strings.Join(urls, ","),
		"-probe-interval", "200ms",
		"-attempt-timeout", "5s",
	)

	client := &http.Client{Timeout: 60 * time.Second}

	// Ingest GRID2D-15x15 through the router and learn its replica set.
	req, err := http.NewRequest(http.MethodPut, router.base+"/v1/matrix/smoke?wait=1",
		strings.NewReader(`{"grid2d":"15x15"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("routed ingest: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed ingest: %d (%s)", resp.StatusCode, body)
	}
	var ing struct {
		Replicas []string `json:"replicas"`
	}
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatalf("ingest reply %s: %v", body, err)
	}
	if len(ing.Replicas) != 2 {
		t.Fatalf("replica set %v, want 2 of 3 backends", ing.Replicas)
	}

	// Ground truth: the same registry pipeline in-process. All execution
	// strategies are pinned bitwise-identical, so byte equality is the
	// bar, not a residual.
	ref := registry.New(registry.Config{})
	defer ref.Close()
	src, err := registry.Spec{Grid2D: "15x15"}.Source()
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Register("smoke", src); err != nil {
		t.Fatal(err)
	}
	h, err := ref.AcquireWait("smoke", nil)
	if err != nil {
		t.Fatal(err)
	}
	n := h.Matrix().N
	wantFor := func(seed int64) []float64 {
		rhs := mesh.RandomRHS(n, 1, seed)
		want, err := h.Server().Solve(context.Background(), append([]float64(nil), rhs.Data...))
		if err != nil {
			t.Fatalf("reference solve seed %d: %v", seed, err)
		}
		return want
	}
	defer h.Release()

	// Concurrent traffic. Each request retries on transport errors and
	// retryable statuses — the zero-lost-answers contract is "no request
	// terminally fails", not "no request ever sees the failover window".
	const (
		workers     = 4
		perWorker   = 30
		killAfter   = 20 // requests completed before the SIGKILL
		maxAttempts = 8
	)
	var (
		completed  atomic.Int64
		retried    atomic.Int64
		retriedOK  atomic.Int64
		killOnce   sync.Once
		killedDone = make(chan struct{})
	)
	victim := backends[ing.Replicas[0]]
	if victim == nil {
		t.Fatalf("ingest replica %q is not a started backend (%v)", ing.Replicas[0], urls)
	}

	solveOnce := func(seed int64) (*sparse.Block, int, error) {
		rhs := mesh.RandomRHS(n, 1, seed)
		resp, err := client.Post(router.base+"/v1/solve/smoke",
			"application/octet-stream", bytes.NewReader(transport.EncodeBlock(nil, rhs)))
		if err != nil {
			return nil, 0, err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, resp.StatusCode, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, resp.StatusCode, fmt.Errorf("status %d (%s)", resp.StatusCode, out)
		}
		x, err := transport.DecodeBlock(out)
		return x, resp.StatusCode, err
	}

	var wg sync.WaitGroup
	errc := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seed := int64(w*1000 + i + 1)
				var x *sparse.Block
				var err error
				attempts := 0
				for ; attempts < maxAttempts; attempts++ {
					var status int
					x, status, err = solveOnce(seed)
					if err == nil {
						break
					}
					_ = status
					time.Sleep(time.Duration(50*(attempts+1)) * time.Millisecond)
				}
				if err != nil {
					errc <- fmt.Errorf("seed %d lost after %d attempts: %w", seed, attempts, err)
					continue
				}
				if attempts > 0 {
					retried.Add(int64(attempts))
					retriedOK.Add(1)
				}
				want := wantFor(seed)
				for r := range want {
					if math.Float64bits(want[r]) != math.Float64bits(x.Data[r]) {
						errc <- fmt.Errorf("seed %d row %d differs bitwise: want %x, got %x",
							seed, r, math.Float64bits(want[r]), math.Float64bits(x.Data[r]))
						break
					}
				}
				if completed.Add(1) == killAfter {
					killOnce.Do(func() {
						// SIGKILL one replica of the matrix mid-traffic: no drain,
						// no goodbye — the hard failure mode.
						victim.cmd.Process.Kill()
						close(killedDone)
					})
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.Fatalf("lost answers; router stderr:\n%s", router.stderr.String())
	}
	select {
	case <-killedDone:
	default:
		t.Fatal("traffic finished before the kill fired — raise perWorker")
	}
	t.Logf("%d requests, %d retried transparently (%d extra attempts), victim %s",
		completed.Load(), retriedOK.Load(), retried.Load(), victim.base)

	// The router must have noticed the death: the victim's health gauge
	// is no longer 1 once a probe cycle has run.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := client.Get(router.base + "/metrics")
		if err != nil {
			t.Fatalf("router metrics: %v", err)
		}
		met, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		gauge := fmt.Sprintf("sptrsv_cluster_backend_up{backend=%q} 1", victim.base)
		if !strings.Contains(string(met), gauge) {
			if !strings.Contains(string(met), "sptrsv_cluster_backend_up{backend=") {
				t.Fatalf("router metrics missing backend_up gauges:\n%s", met)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router still reports the SIGKILLed backend up:\n%s", met)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// A post-kill solve still answers (the surviving replica).
	x, _, err := solveOnce(999999)
	if err != nil {
		t.Fatalf("post-kill solve: %v", err)
	}
	want := wantFor(999999)
	for r := range want {
		if math.Float64bits(want[r]) != math.Float64bits(x.Data[r]) {
			t.Fatalf("post-kill solve differs bitwise at row %d", r)
		}
	}

	// Graceful teardown of the survivors.
	if err := router.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	routerDone := make(chan error, 1)
	go func() { routerDone <- router.cmd.Wait() }()
	select {
	case err := <-routerDone:
		if err != nil {
			t.Fatalf("router exited uncleanly: %v\nstderr:\n%s", err, router.stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("router did not drain within 30s; stderr:\n%s", router.stderr.String())
	}
	for url, p := range backends {
		if p == victim {
			continue
		}
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- p.cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("backend %s exited uncleanly: %v\nstderr:\n%s", url, err, p.stderr.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("backend %s did not drain within 30s", url)
		}
	}
}
