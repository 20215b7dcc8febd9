package transport

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"sptrsv/internal/mesh"
	"sptrsv/internal/native"
	"sptrsv/internal/registry"
	"sptrsv/internal/serve"
	"sptrsv/internal/sparse"
)

// The tests in this file are regressions for three handleSolve bugs: a
// registry handle acquired before the request body was read (pinning the
// entry across a slow upload), a multi-RHS fan-out that never cancelled
// sibling solves after the first failure, and per-column validation of a
// mismatched multi-RHS body inflating the rejected_invalid counter.

// TestEvictionDuringSlowUpload pins the acquire-after-read order: while
// a slow client is still uploading its solve body, the matrix must be
// evictable immediately — no handle may be held during the upload — and
// the finished request then observes 410 Gone.
func TestEvictionDuringSlowUpload(t *testing.T) {
	ts, reg := newTestStack(t, "g", 9, 9, registry.Config{})
	n := 9 * 9

	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/v1/solve/g", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")

	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()

	// Send the header and a partial payload, then stall mid-upload.
	body := EncodeBlock(nil, mesh.RandomRHS(n, 1, 1))
	if _, err := pw.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the handler block in ReadAll

	// Evict while the upload is stalled: with no handle pinned the entry
	// must go straight to evicted with zero refs — not linger draining.
	if err := reg.Evict("g"); err != nil {
		t.Fatal(err)
	}
	st, err := reg.Status("g")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "evicted" || st.Refs != 0 {
		t.Fatalf("mid-upload eviction left state=%s refs=%d, want evicted/0 (handle pinned during upload)",
			st.State, st.Refs)
	}

	// Finish the upload; the handler acquires only now and sees the
	// tombstone.
	if _, err := pw.Write(body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	select {
	case err := <-errCh:
		t.Fatal(err)
	case resp := <-respCh:
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("completed upload after eviction: %d, want 410", resp.StatusCode)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("solve request did not complete")
	}
}

// TestMultiRHSSiblingCancellation pins the fan-out cancellation: when
// one column of a multi-RHS body fails (here: shed at admission), the
// surviving columns must be cancelled instead of riding out their slow
// sweeps — the handler reports the first error either way, so waiting
// only burns batch width.
func TestMultiRHSSiblingCancellation(t *testing.T) {
	const stall = 1500 * time.Millisecond
	// MaxBatch 1 + QueueDepth 1 shed most of the fan-out at admission;
	// the hook makes every admitted sweep slow enough to notice waiting.
	ts, _ := newTestStack(t, "g", 15, 15, registry.Config{
		Serve: serve.Config{
			MaxBatch: 1, QueueDepth: 1, Workers: 1, Linger: time.Millisecond,
			TaskHook: func(ctx context.Context, phase native.TaskPhase, s int) error {
				if phase == native.ForwardPhase && s == 0 {
					select {
					case <-time.After(stall):
					case <-ctx.Done():
					}
				}
				return nil
			},
		},
	})
	n := 15 * 15
	const m = 8
	blk := sparse.NewBlock(n, m)
	for j := 0; j < m; j++ {
		col := mesh.RandomRHS(n, 1, int64(j+1))
		for i := 0; i < n; i++ {
			blk.Data[i*m+j] = col.Data[i]
		}
	}
	start := time.Now()
	_, resp := doSolve(t, ts, "g", blk, "")
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded fan-out: %d, want 429", resp.StatusCode)
	}
	// With cancellation the admitted siblings unwind as soon as the first
	// rejection lands; without it the handler waits out at least one full
	// stalled sweep.
	if elapsed >= stall {
		t.Fatalf("handler took %v, want well under the %v sweep stall (siblings not cancelled)", elapsed, stall)
	}
}

// TestMultiRHSBadShapeValidatedOnce pins the upfront shape check: a
// multi-RHS body whose row count mismatches the matrix order is rejected
// once, before the fan-out — no goroutine is spawned and the
// rejected_invalid counter does not move (previously one bad request
// inflated it by M).
func TestMultiRHSBadShapeValidatedOnce(t *testing.T) {
	ts, reg := newTestStack(t, "g", 9, 9, registry.Config{})
	n := 9 * 9
	_, resp := doSolve(t, ts, "g", sparse.NewBlock(n-1, 5), "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched multi-RHS: %d, want 400", resp.StatusCode)
	}
	h, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if got := h.Server().Snapshot().RejectedInvalid; got != 0 {
		t.Fatalf("rejected_invalid = %d after one bad request, want 0 (validated upfront, not per column)", got)
	}
}

// TestIngestStrategyOption pins that the retired strategy and kernel
// options are ignored, not refused: older clients and the router's
// replayed ingests still send ?strategy=, ?kernel= and the JSON fields of
// the same names, with values that no longer exist. All ingest, the
// status body carries neither key, and the option that remains is still
// validated.
func TestIngestStrategyOption(t *testing.T) {
	ts, _ := newTestStack(t, "", 0, 0, registry.Config{})

	put := func(url, body string) (*http.Response, string) {
		resp, err := http.DefaultClient.Do(mustReq(t, "PUT", ts.URL+url, strings.NewReader(body), "application/json"))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(out)
	}

	for url, spec := range map[string]string{
		"/v1/matrix/q?wait=1&strategy=levelset": `{"grid2d":"9x9"}`,
		"/v1/matrix/j?wait=1":                   `{"grid2d":"9x9","strategy":"hybrid"}`,
		"/v1/matrix/k?wait=1&kernel=fastest":    `{"grid2d":"9x9"}`,
		"/v1/matrix/l?wait=1":                   `{"grid2d":"9x9","kernel":"tiled"}`,
	} {
		resp, body := put(url, spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT %s %s: %d (%s), want 200", url, spec, resp.StatusCode, body)
		}
		if strings.Contains(body, "strategy") || strings.Contains(body, "kernel") {
			t.Fatalf("PUT %s: status body %s still reports a strategy or kernel", url, body)
		}
	}
	if resp, body := put("/v1/matrix/nowait?strategy=auto", `{"grid2d":"9x9","strategy":"subtree"}`); resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("no-wait ingest with a strategy: %d (%s), want 200 or 202", resp.StatusCode, body)
	}
	if resp, body := put("/v1/matrix/bad?precision=float16", `{"grid2d":"9x9"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown precision: %d (%s), want 400", resp.StatusCode, body)
	}
	if x, r := doSolve(t, ts, "q", mesh.RandomRHS(81, 1, 3), ""); x == nil {
		t.Fatalf("solve on a matrix ingested with ?strategy=: %d", r.StatusCode)
	}
}
