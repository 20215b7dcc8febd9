package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sptrsv/internal/faultinject"
	"sptrsv/internal/mesh"
	"sptrsv/internal/registry"
	"sptrsv/internal/sparse"
	"sptrsv/internal/transport"
)

// testBackend is one in-process solved: a real registry behind the real
// HTTP transport, with a fault gate at the network edge.
type testBackend struct {
	url  string
	gate *faultinject.HTTPGate
	reg  *registry.Registry
	srv  *httptest.Server
}

// kill emulates a SIGKILL at the connection level: new connections are
// refused and every established one is torn down.
func (b *testBackend) kill() {
	b.gate.Set(faultinject.GateRefuse)
	b.srv.CloseClientConnections()
}

func (b *testBackend) revive() { b.gate.Set(faultinject.GatePass) }

type testCluster struct {
	rt       *Router
	srv      *httptest.Server
	backends map[string]*testBackend // by base URL
}

func newTestCluster(t *testing.T, n int, mod func(*RouterConfig)) *testCluster {
	t.Helper()
	tc := &testCluster{backends: make(map[string]*testBackend, n)}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		reg := registry.New(registry.Config{})
		t.Cleanup(reg.Close)
		gate := faultinject.NewHTTPGate()
		srv := httptest.NewUnstartedServer(gate.Middleware(transport.New(reg)))
		srv.Listener = gate.Listener(srv.Listener)
		srv.Start()
		t.Cleanup(srv.Close)
		// Reopen the gate before the server drains on cleanup, so a test
		// that ends mid-stall cannot hang Close.
		t.Cleanup(func() { gate.Set(faultinject.GatePass) })
		b := &testBackend{url: srv.URL, gate: gate, reg: reg, srv: srv}
		tc.backends[b.url] = b
		urls = append(urls, b.url)
	}
	cfg := RouterConfig{
		Backends:      urls,
		ProbeInterval: time.Hour, // tests drive probeOnce/rebalanceOnce by hand
		Health:        HealthConfig{DownCooldown: 50 * time.Millisecond},
	}
	if mod != nil {
		mod(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	tc.rt = rt
	tc.srv = httptest.NewServer(rt)
	t.Cleanup(tc.srv.Close)
	return tc
}

// ingest routes a grid2d spec through the router with wait=1 and
// returns the reply. Every ingest also carries the ?strategy= of an
// older client: the router stores and replays the query verbatim, and no
// backend may refuse it.
func (tc *testCluster) ingest(t *testing.T, id, spec string) clusterIngest {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut,
		tc.srv.URL+"/v1/matrix/"+id+"?strategy=levelset&wait=1", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed ingest: %d (%s), want 200", resp.StatusCode, body)
	}
	var out clusterIngest
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("ingest reply %s: %v", body, err)
	}
	return out
}

// solve posts one RHS block through the router and decodes the answer;
// on a non-200 it returns the response for the caller to inspect.
func (tc *testCluster) solve(t *testing.T, id string, b *sparse.Block) (*sparse.Block, *http.Response) {
	t.Helper()
	resp, err := http.Post(tc.srv.URL+"/v1/solve/"+id,
		"application/octet-stream", bytes.NewReader(transport.EncodeBlock(nil, b)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body = io.NopCloser(bytes.NewReader(out))
		return nil, resp
	}
	x, err := transport.DecodeBlock(out)
	if err != nil {
		t.Fatalf("decoding routed solve: %v", err)
	}
	return x, resp
}

// referenceSolve computes the in-process answer for a grid2d matrix —
// the bitwise ground truth every routed answer must match.
func referenceSolve(t *testing.T, nx, ny int, rhs *sparse.Block) []float64 {
	t.Helper()
	reg := registry.New(registry.Config{})
	defer reg.Close()
	src, err := registry.Spec{Grid2D: fmt.Sprintf("%dx%d", nx, ny)}.Source()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("ref", src); err != nil {
		t.Fatal(err)
	}
	h, err := reg.AcquireWait("ref", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	want, err := h.Server().Solve(context.Background(), append([]float64(nil), rhs.Data...))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func assertBitwise(t *testing.T, want []float64, got *sparse.Block, label string) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no answer", label)
	}
	if len(want) != len(got.Data) {
		t.Fatalf("%s: length %d vs %d", label, len(want), len(got.Data))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: row %d differs bitwise: want %x, got %x",
				label, i, math.Float64bits(want[i]), math.Float64bits(got.Data[i]))
		}
	}
}

// TestRouterIngestSolveRoundTrip: a routed ingest lands on the base
// replication factor, and a routed solve is bitwise identical to the
// in-process answer.
func TestRouterIngestSolveRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	ing := tc.ingest(t, "g", `{"grid2d":"9x9"}`)
	if len(ing.Replicas) != 2 {
		t.Fatalf("replica set %v, want 2 backends", ing.Replicas)
	}
	for b, st := range ing.Statuses {
		if st != "resident" {
			t.Fatalf("backend %s state %q after wait=1 ingest, want resident", b, st)
		}
	}
	rhs := mesh.RandomRHS(81, 1, 42)
	want := referenceSolve(t, 9, 9, rhs)
	got, _ := tc.solve(t, "g", rhs)
	assertBitwise(t, want, got, "routed solve")
}

// TestRouterRelaysContentLength: a routed reply carries the backend's
// Content-Length instead of arriving chunked, and the pooled request
// body stays intact across back-to-back solves.
func TestRouterRelaysContentLength(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	tc.ingest(t, "g", `{"grid2d":"9x9"}`)
	for seed := int64(1); seed <= 3; seed++ {
		rhs := mesh.RandomRHS(81, 1, seed)
		got, resp := tc.solve(t, "g", rhs)
		assertBitwise(t, referenceSolve(t, 9, 9, rhs), got, fmt.Sprintf("routed solve %d", seed))
		if want := int64(8 + 8*81); resp.ContentLength != want || len(resp.TransferEncoding) != 0 {
			t.Fatalf("routed reply: Content-Length %d, transfer encoding %v; want %d and none",
				resp.ContentLength, resp.TransferEncoding, want)
		}
	}
}

// TestRouterFailoverOnKilledReplica is the in-process version of the
// kill-a-backend smoke: refuse one replica's connections mid-stream and
// every answer must still arrive, bitwise right.
func TestRouterFailoverOnKilledReplica(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	ing := tc.ingest(t, "g", `{"grid2d":"9x9"}`)

	rhs := mesh.RandomRHS(81, 1, 7)
	want := referenceSolve(t, 9, 9, rhs)
	got, _ := tc.solve(t, "g", rhs)
	assertBitwise(t, want, got, "pre-kill solve")

	// Kill the preferred replica.
	victim := tc.backends[ing.Replicas[0]]
	victim.kill()
	for i := 0; i < 5; i++ {
		got, _ := tc.solve(t, "g", rhs)
		assertBitwise(t, want, got, fmt.Sprintf("post-kill solve %d", i))
	}
	if f := tc.rt.met.failovers.Load(); f == 0 {
		t.Fatal("killed preferred replica but no failover was recorded")
	}

	// The active prober notices the death.
	tc.rt.probeOnce()
	tc.rt.probeOnce()
	if s := tc.rt.Health().State(victim.url); s == StateUp {
		t.Fatalf("probed a refusing backend twice, still %v", s)
	}

	// Revival heals it: one good probe returns it to up.
	victim.revive()
	time.Sleep(60 * time.Millisecond) // past DownCooldown, into half-open
	tc.rt.probeOnce()
	if s := tc.rt.Health().State(victim.url); s != StateUp {
		t.Fatalf("revived backend is %v after a good probe, want up", s)
	}
}

// TestRouterStalledReplicaFailsOver: a wedged (accepting, never
// answering) replica must turn into a failover at AttemptTimeout, not a
// hang.
func TestRouterStalledReplicaFailsOver(t *testing.T) {
	tc := newTestCluster(t, 3, func(cfg *RouterConfig) {
		cfg.AttemptTimeout = 200 * time.Millisecond
	})
	ing := tc.ingest(t, "g", `{"grid2d":"9x9"}`)
	rhs := mesh.RandomRHS(81, 1, 3)
	want := referenceSolve(t, 9, 9, rhs)

	victim := tc.backends[ing.Replicas[0]]
	victim.gate.Set(faultinject.GateStall)
	defer victim.revive()

	t0 := time.Now()
	got, _ := tc.solve(t, "g", rhs)
	assertBitwise(t, want, got, "solve past stalled replica")
	if took := time.Since(t0); took > 2*time.Second {
		t.Fatalf("failover from a stalled replica took %v", took)
	}
}

// TestRouterRepairsRestartedReplica: a replica that lost the matrix
// (evicted, or restarted with an empty registry) answers 404; the solve
// fails over with no lost answer and the router re-ingests the spec at
// the amnesiac replica.
func TestRouterRepairsRestartedReplica(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	ing := tc.ingest(t, "g", `{"grid2d":"9x9","strategy":"hybrid"}`) // a replayed pre-PR-17 spec
	rhs := mesh.RandomRHS(81, 1, 11)
	want := referenceSolve(t, 9, 9, rhs)

	// Wipe the matrix from the preferred replica behind the router's
	// back — the moral equivalent of a restart.
	victim := ing.Replicas[0]
	req, _ := http.NewRequest(http.MethodDelete, victim+"/v1/matrix/g", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	// The next routed solve must still answer, from a sibling.
	got, _ := tc.solve(t, "g", rhs)
	assertBitwise(t, want, got, "solve past amnesiac replica")

	// And the repair loop re-ingests at the victim.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(victim + "/v1/matrix/g")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("replica was never repaired after answering 404")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if r := tc.rt.met.repairs.Load(); r == 0 {
		t.Fatal("repair happened but the counter did not move")
	}
}

// TestRouterUnknownMatrix404s: an id no backend holds exhausts the
// failover budget and surfaces as 404, not a hang or a 5xx.
func TestRouterUnknownMatrix404s(t *testing.T) {
	tc := newTestCluster(t, 3, func(cfg *RouterConfig) {
		cfg.SolveAttempts = 2
	})
	got, resp := tc.solve(t, "nope", mesh.RandomRHS(4, 1, 1))
	if got != nil {
		t.Fatal("solve of an unknown id produced an answer")
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: %d, want 404", resp.StatusCode)
	}
}

// TestRouterExhaustedKeepsRetryAfter: when the solve budget runs out on a
// backend that is still building (503) or shedding load (429), the router
// answers with that status and a Retry-After — rounded up to whole
// seconds, 1 when the backend named none — so a retrying client rides the
// window out instead of failing; a 404 carries no such header.
func TestRouterExhaustedKeepsRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		cause      error
		code       int
		retryAfter string
	}{
		{&StatusError{Code: http.StatusServiceUnavailable, RetryAfter: 1500 * time.Millisecond}, http.StatusServiceUnavailable, "2"},
		{&StatusError{Code: http.StatusTooManyRequests}, http.StatusTooManyRequests, "1"},
		{&StatusError{Code: http.StatusNotFound}, http.StatusNotFound, ""},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, ""},
		{io.ErrUnexpectedEOF, http.StatusBadGateway, "1"},
	} {
		w := httptest.NewRecorder()
		writeExhausted(w, &ExhaustedError{Attempts: 2, Err: tc.cause})
		if got := w.Header().Get("Retry-After"); w.Code != tc.code || got != tc.retryAfter {
			t.Errorf("%v: status %d Retry-After %q, want %d %q", tc.cause, w.Code, got, tc.code, tc.retryAfter)
		}
	}
}

// TestRouterPartialIngest: with one replica dead, a routed ingest
// reports partial success (202 + error detail) — the matrix serves at
// reduced redundancy instead of failing outright.
func TestRouterPartialIngest(t *testing.T) {
	tc := newTestCluster(t, 2, nil) // 2 backends → every matrix replicates on both
	for _, b := range tc.backends {
		b.kill()
		defer b.revive()
		break
	}
	req, _ := http.NewRequest(http.MethodPut,
		tc.srv.URL+"/v1/matrix/g?wait=1", strings.NewReader(`{"grid2d":"9x9"}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("partial ingest: %d (%s), want 202", resp.StatusCode, body)
	}
	var out clusterIngest
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Error == "" {
		t.Fatalf("partial ingest reply carries no error detail: %s", body)
	}
	if tc.rt.met.ingestPart.Load() != 1 {
		t.Fatal("partial-ingest counter did not move")
	}
	// The surviving replica still answers.
	rhs := mesh.RandomRHS(81, 1, 5)
	want := referenceSolve(t, 9, 9, rhs)
	got, _ := tc.solve(t, "g", rhs)
	assertBitwise(t, want, got, "solve at reduced redundancy")
}

// TestRouterHotPromotionAndDemotion drives the rate → promote → demote
// cycle by hand with a microscopic QPS threshold; the router rates a
// matrix from the solves it routes itself.
func TestRouterHotPromotionAndDemotion(t *testing.T) {
	tc := newTestCluster(t, 3, func(cfg *RouterConfig) {
		cfg.HotQPS = 0.01 // any traffic at all promotes
	})
	tc.ingest(t, "g", `{"grid2d":"9x9"}`)
	rhs := mesh.RandomRHS(81, 1, 9)

	tc.solve(t, "g", rhs)
	tc.rt.rebalanceOnce() // first sighting: baselines the counter
	time.Sleep(30 * time.Millisecond)
	tc.solve(t, "g", rhs)
	tc.solve(t, "g", rhs)
	tc.rt.rebalanceOnce() // delta > 0 over the window → promote

	routes := tc.rt.Routes()
	if len(routes) != 1 || !routes[0].Hot {
		t.Fatalf("matrix not promoted: %+v", routes)
	}
	if len(routes[0].Replicas) != 3 {
		t.Fatalf("hot matrix on %d replicas, want 3", len(routes[0].Replicas))
	}
	if tc.rt.met.promotions.Load() != 1 {
		t.Fatal("promotion counter did not move")
	}
	// The promotion re-ingested at the new replica synchronously: it must
	// at least know the matrix now.
	third := routes[0].Replicas[2]
	resp, err := http.Get(third + "/v1/matrix/g")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("new hot replica answers %d for the matrix, want 200", resp.StatusCode)
	}

	// Silence over a window demotes it back.
	time.Sleep(30 * time.Millisecond)
	tc.rt.rebalanceOnce()
	routes = tc.rt.Routes()
	if routes[0].Hot || len(routes[0].Replicas) != 2 {
		t.Fatalf("matrix not demoted after cooling: %+v", routes)
	}
	if tc.rt.met.demotions.Load() != 1 {
		t.Fatal("demotion counter did not move")
	}
}

// TestRouterMetricsEndpoint spot-checks the router's own exposition.
func TestRouterMetricsEndpoint(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.ingest(t, "g", `{"grid2d":"9x9"}`)
	rhs := mesh.RandomRHS(81, 1, 2)
	tc.solve(t, "g", rhs)

	resp, err := http.Get(tc.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"sptrsv_cluster_solves_total 1",
		"sptrsv_cluster_solves_ok_total 1",
		"sptrsv_cluster_ingests_total 1",
		`sptrsv_cluster_matrix_replicas{matrix="g"} 2`,
		"sptrsv_cluster_backend_up{backend=",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("router metrics missing %q:\n%s", want, body)
		}
	}
}

// TestRouterEvictFansOut: a routed DELETE removes the matrix from every
// replica and the routing table.
func TestRouterEvictFansOut(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	ing := tc.ingest(t, "g", `{"grid2d":"9x9"}`)
	req, _ := http.NewRequest(http.MethodDelete, tc.srv.URL+"/v1/matrix/g", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("routed evict: %d, want 204", resp.StatusCode)
	}
	for _, b := range ing.Replicas {
		r, err := http.Get(b + "/v1/matrix/g")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		// An evicted matrix leaves a tombstone: status still answers, but
		// the state must no longer be resident/building.
		var st struct {
			State string `json:"state"`
		}
		if r.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			if st.State == "resident" || st.State == "building" {
				t.Fatalf("replica %s still holds the matrix after routed evict (state %q)", b, st.State)
			}
		}
	}
	if len(tc.rt.Routes()) != 0 {
		t.Fatalf("routing table not empty after evict: %+v", tc.rt.Routes())
	}
}

// TestRouterHotnessCountsRoutedSolves pins the signal promotion reads:
// solves posted straight to a backend never consult the replica set and
// do not promote, a routed solve does, and a multi-column post counts as
// one solve.
func TestRouterHotnessCountsRoutedSolves(t *testing.T) {
	tc := newTestCluster(t, 3, func(cfg *RouterConfig) {
		cfg.HotQPS = 0.01 // any routed traffic at all promotes
	})
	ing := tc.ingest(t, "g", `{"grid2d":"9x9"}`)
	tc.rt.rebalanceOnce() // starts the window

	body := transport.EncodeBlock(nil, mesh.RandomRHS(81, 1, 4))
	for i := 0; i < 5; i++ {
		resp, err := http.Post(ing.Replicas[0]+"/v1/solve/g", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("direct solve: %d, want 200", resp.StatusCode)
		}
	}
	time.Sleep(10 * time.Millisecond)
	tc.rt.rebalanceOnce()
	if r := tc.rt.Routes(); r[0].Hot || r[0].QPS != 0 {
		t.Fatalf("direct-to-backend solves moved the router's rate: %+v", r)
	}

	if x, resp := tc.solve(t, "g", mesh.RandomRHS(81, 5, 4)); x == nil {
		t.Fatalf("routed 5-column solve: %d", resp.StatusCode)
	}
	tc.rt.mu.Lock()
	n := tc.rt.matrices["g"].solves
	tc.rt.mu.Unlock()
	if n != 1 {
		t.Fatalf("one routed 5-column post counted %d times, want 1", n)
	}
	time.Sleep(10 * time.Millisecond)
	tc.rt.rebalanceOnce()
	if r := tc.rt.Routes(); !r[0].Hot || len(r[0].Replicas) != 3 {
		t.Fatalf("routed solve did not promote: %+v", r)
	}
}

// TestMetricsLabelEscaping: matrix ids holding a tab or a byte that is
// not UTF-8 reach both pages as the text format defines label values —
// the tab raw, the bad byte as U+FFFD — not as Go escapes a scraper
// rejects.
func TestMetricsLabelEscaping(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	tc.ingest(t, "a%09b", `{"grid2d":"5x5"}`)
	ing := tc.ingest(t, "x%FFy", `{"grid2d":"5x5"}`)
	for _, page := range []struct{ url, family string }{
		{tc.srv.URL, "sptrsv_cluster_matrix_replicas"},
		{ing.Replicas[0], "sptrsv_serve_accepted_total"},
	} {
		resp, err := http.Get(page.url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range []string{
			page.family + "{matrix=\"a\tb\"}",
			page.family + "{matrix=\"x\uFFFDy\"}",
		} {
			if !strings.Contains(string(body), want) {
				t.Errorf("%s/metrics lacks %q:\n%s", page.url, want, body)
			}
		}
	}
}
