package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sptrsv/internal/httpkit"
)

// This file is the router tier: one HTTP front end over N solved
// backends. Matrix ids are placed on the consistent-hash ring with a
// replication factor of at least Replicas (HotReplicas once the rate of
// solves the router itself routes for the matrix says it is hot); ingest
// fans out to every replica, solve goes to the healthiest replica and
// fails over through the rest. The router is deliberately stateless
// about answers — it never caches a solution — so "zero lost answers" is
// purely a property of retry + replication.

// RouterConfig tunes a Router. Backends is required; every other zero
// value selects a default.
type RouterConfig struct {
	// Backends are the solved base URLs (e.g. http://127.0.0.1:8041).
	Backends []string
	// Replicas is the base replication factor; 0 means 2 (always clamped
	// to len(Backends)).
	Replicas int
	// HotReplicas is the replication factor of a hot matrix; 0 means
	// Replicas+1.
	HotReplicas int
	// HotQPS promotes a matrix to HotReplicas when the rate of solves
	// routed for it (POST /v1/solve/{id} through this router, each counted
	// once however many columns or retries it takes) reaches this; 0
	// means 50. A hot matrix is demoted when its rate falls below
	// HotQPS/4 (hysteresis so a matrix hovering at the threshold does not
	// flap).
	HotQPS float64
	// ProbeInterval spaces active health probes and rebalancing; 0 means
	// 1s.
	ProbeInterval time.Duration
	// SolveAttempts bounds the retry client's attempts per solve; 0
	// means 2×len(Backends) (enough to cycle every replica twice).
	SolveAttempts int
	// AttemptTimeout bounds one proxied solve attempt so a stalled
	// backend turns into a failover, not a hang; 0 means 30s.
	AttemptTimeout time.Duration
	// Health tunes the per-backend state machine.
	Health HealthConfig
}

func (c *RouterConfig) fill() {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Replicas > len(c.Backends) {
		c.Replicas = len(c.Backends)
	}
	if c.HotReplicas <= 0 {
		c.HotReplicas = c.Replicas + 1
	}
	if c.HotReplicas > len(c.Backends) {
		c.HotReplicas = len(c.Backends)
	}
	if c.HotQPS <= 0 {
		c.HotQPS = 50
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.SolveAttempts <= 0 {
		c.SolveAttempts = 2 * len(c.Backends)
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
}

// probeTimeout bounds one /healthz probe.
const probeTimeout = 500 * time.Millisecond

// PartialError is the typed partial-failure of an ingest fan-out: some
// replicas accepted the matrix, some did not. The matrix is servable
// (Succeeded is non-empty whenever PartialError is returned instead of
// a total failure), but at reduced redundancy until repair re-ingests
// the failed replicas.
type PartialError struct {
	ID        string
	Succeeded []string
	Failed    map[string]error
}

func (e *PartialError) Error() string {
	fails := make([]string, 0, len(e.Failed))
	for b, err := range e.Failed {
		fails = append(fails, fmt.Sprintf("%s: %v", b, err))
	}
	sort.Strings(fails)
	return fmt.Sprintf("cluster: ingest of %q reached %d/%d replicas (failed: %s)",
		e.ID, len(e.Succeeded), len(e.Succeeded)+len(e.Failed), strings.Join(fails, "; "))
}

// matrixState is the router's record of one ingested matrix.
type matrixState struct {
	id          string
	body        []byte // stored ingest body, replayed on promotion/repair
	contentType string
	query       string // original ingest query, replayed verbatim minus wait
	values      []byte // latest streaming value update (nnz×1 block), replayed after a re-ingest
	hot         bool
	replicas    []string // current ring placement, preference order

	solves uint64    // solves routed since the last rebalance
	since  time.Time // last rebalance; zero until the first one
	qps    float64
}

// routerMetrics are the router's own counters, exported at /metrics.
type routerMetrics struct {
	solves      atomic.Uint64 // solve requests entering the router
	solveOK     atomic.Uint64
	retries     atomic.Uint64 // extra attempts beyond the first, all routes
	failovers   atomic.Uint64 // solves answered by a non-first-choice replica
	exhausted   atomic.Uint64 // solves that ran out of retry budget
	ingests     atomic.Uint64
	ingestPart  atomic.Uint64 // ingests that reached only part of the replica set
	valueUpds   atomic.Uint64 // value-update requests entering the router
	valueUpdPrt atomic.Uint64 // value updates that reached only part of the replica set
	promotions  atomic.Uint64
	demotions   atomic.Uint64
	repairs     atomic.Uint64 // async re-ingests triggered by 404/410 from a replica
	probeCycles atomic.Uint64
}

// Router is the cluster front end. Construct with NewRouter, serve it
// as an http.Handler, stop with Close.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	health *Health
	solve  *Client // retrying client for proxied solves (attempt-bounded)
	ingest *Client // retrying client for ingest/control (no attempt bound: builds take time)
	httpc  *http.Client
	mux    *http.ServeMux
	met    routerMetrics

	mu        sync.Mutex
	matrices  map[string]*matrixState
	repairing map[string]bool // backend+"|"+id with a repair in flight

	stop   chan struct{}
	cancel context.CancelFunc // ends background repair/rebalance contexts
	ctx    context.Context
	wg     sync.WaitGroup
}

// NewRouter builds the router and starts its probe/rebalance loop.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg.fill()
	ring, err := NewRing(cfg.Backends, DefaultVnodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:       cfg,
		ring:      ring,
		health:    NewHealth(cfg.Backends, cfg.Health),
		matrices:  make(map[string]*matrixState),
		repairing: make(map[string]bool),
		stop:      make(chan struct{}),
	}
	rt.ctx, rt.cancel = context.WithCancel(context.Background())
	rt.httpc = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}}
	// Every proxied attempt feeds the health machine: a real answer
	// (even a 4xx) proves the process alive; connect errors, 500 and 502
	// mark it. 503/404/410 are deliberately neither success nor failure —
	// they describe matrix state, not backend sickness (a building matrix
	// must not blackhole its backend) — but 404/410 do trigger async
	// repair, since they are the signature of a restarted or evicted
	// replica.
	onAttempt := func(a Attempt) {
		switch {
		case a.Err != nil,
			a.Status == http.StatusInternalServerError,
			a.Status == http.StatusBadGateway:
			rt.health.ReportFailure(a.Target, a.Connect)
		case !retryableStatus(a.Status) && a.Status != http.StatusNotFound:
			rt.health.ReportSuccess(a.Target)
		}
		if a.Status == http.StatusNotFound || a.Status == http.StatusGone {
			rt.scheduleRepair(a.Target)
		}
	}
	rt.solve = &Client{
		HTTP:           rt.httpc,
		MaxAttempts:    cfg.SolveAttempts,
		AttemptTimeout: cfg.AttemptTimeout,
		RetryOn:        []int{http.StatusNotFound},
		OnAttempt:      onAttempt,
	}
	rt.ingest = &Client{
		HTTP:        rt.httpc,
		MaxAttempts: 3,
		OnAttempt:   onAttempt,
	}

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("PUT /v1/matrix/{id}", rt.handleIngest)
	rt.mux.HandleFunc("DELETE /v1/matrix/{id}", rt.handleEvict)
	rt.mux.HandleFunc("GET /v1/matrix/{id}", rt.proxyGet(""))
	rt.mux.HandleFunc("PUT /v1/matrix/{id}/values", rt.handleUpdateValues)
	rt.mux.HandleFunc("GET /v1/matrix/{id}/values", rt.proxyGet("/values"))
	rt.mux.HandleFunc("POST /v1/solve/{id}", rt.handleSolve)
	rt.mux.HandleFunc("GET /v1/matrices", rt.handleList)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /healthz", httpkit.Healthz)

	rt.wg.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// Close stops the probe loop. In-flight proxied requests finish on
// their own contexts.
func (rt *Router) Close() {
	close(rt.stop)
	rt.cancel()
	rt.wg.Wait()
	rt.httpc.CloseIdleConnections()
}

// Health exposes the backend health tracker (metrics, tests).
func (rt *Router) Health() *Health { return rt.health }

// replicasFor returns the current replica set of id in ring preference
// order, deriving it from the base factor for ids the router has not
// ingested (direct-at-backend ingests still route).
func (rt *Router) replicasFor(id string) []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if m := rt.matrices[id]; m != nil {
		return m.replicas
	}
	return rt.ring.Replicas(id, rt.cfg.Replicas)
}

// ---- solve ----

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.met.solves.Add(1)
	buf := httpkit.GetBuffer()
	body, ok := httpkit.ReadBodyInto(w, r.Body, buf, "cluster", "solve", maxProxyBytes)
	if !ok {
		httpkit.PutBuffer(buf)
		return
	}
	bodies := &attemptBodies{data: body}
	defer func() {
		if bodies.open.Load() == 0 {
			httpkit.PutBuffer(buf)
		}
	}()
	// The routed solve counts toward the matrix's hotness once, however
	// many columns it carries or attempts it takes.
	rt.mu.Lock()
	if m := rt.matrices[id]; m != nil {
		m.solves++
	}
	rt.mu.Unlock()
	targets := rt.health.Rank(rt.replicasFor(id))
	q := ""
	if r.URL.RawQuery != "" {
		q = "?" + r.URL.RawQuery
	}
	res, err := rt.solve.Do(r.Context(), targets, func(target string) (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, target+"/v1/solve/"+url.PathEscape(id)+q, nil)
		if err != nil {
			return nil, err
		}
		if len(body) > 0 {
			req.Body, req.ContentLength = bodies.reader(), int64(len(body))
			req.GetBody = func() (io.ReadCloser, error) { return bodies.reader(), nil }
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		return req, nil
	})
	if err != nil {
		rt.met.exhausted.Add(1)
		writeExhausted(w, err)
		return
	}
	if res.Attempts > 1 {
		rt.met.retries.Add(uint64(res.Attempts - 1))
	}
	if res.Target != targets[0] {
		rt.met.failovers.Add(1)
	}
	if res.Resp.StatusCode == http.StatusOK {
		rt.met.solveOK.Add(1)
	}
	copyResponse(w, res.Resp)
}

// attemptBodies hands every attempt of one proxied solve a reader over
// the pooled request body and counts the readers the HTTP transport has
// not closed yet. A transport may close a request body after the
// response arrived, so the buffer goes back to the pool only when open
// reads 0; otherwise it is left to the collector.
type attemptBodies struct {
	data []byte
	open atomic.Int64
}

func (a *attemptBodies) reader() io.ReadCloser {
	a.open.Add(1)
	return &attemptBody{Reader: bytes.NewReader(a.data), of: a}
}

type attemptBody struct {
	*bytes.Reader
	of     *attemptBodies
	closed atomic.Bool
}

func (b *attemptBody) Close() error {
	if !b.closed.Swap(true) {
		b.of.open.Add(-1)
	}
	return nil
}

// maxProxyBytes bounds a proxied body (matches the transport layer's
// solve bound).
const maxProxyBytes = 256 << 20

// writeExhausted maps a Do failure onto the client-facing status: the
// last backend cause's status when there was one, 504 when the caller's
// budget ended the call, 502 when every replica was unreachable. 503 and
// 429 keep a Retry-After so well-behaved clients know to come back.
func writeExhausted(w http.ResponseWriter, err error) {
	var se *StatusError
	switch {
	case errors.As(err, &se):
		if se.Code == http.StatusServiceUnavailable || se.Code == http.StatusTooManyRequests {
			httpkit.SetRetryAfter(w, se.RetryAfter)
		}
		httpkit.WriteError(w, se.Code, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		httpkit.WriteError(w, http.StatusGatewayTimeout, err)
	default:
		httpkit.SetRetryAfter(w, time.Second)
		httpkit.WriteError(w, http.StatusBadGateway, err)
	}
}

// copyResponse relays a backend response verbatim, with its length when
// the backend stated one, so the client gets a sized reply rather than a
// chunked one.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// ---- ingest ----

// clusterIngest is the JSON reply of a routed ingest.
type clusterIngest struct {
	ID       string            `json:"id"`
	Replicas []string          `json:"replicas"`
	Hot      bool              `json:"hot,omitempty"`
	Statuses map[string]string `json:"statuses"`        // backend → state or error
	Error    string            `json:"error,omitempty"` // partial-failure detail
}

func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.met.ingests.Add(1)
	body, ok := httpkit.ReadBody(w, r.Body, "cluster", "ingest", maxProxyBytes)
	if !ok {
		return
	}

	rt.mu.Lock()
	m := rt.matrices[id]
	if m == nil {
		m = &matrixState{id: id}
		rt.matrices[id] = m
	}
	m.body = body
	m.contentType = r.Header.Get("Content-Type")
	q := r.URL.Query()
	q.Del("wait")
	m.query = q.Encode()
	m.values = nil // a fresh ingest body is the new value baseline
	rf := rt.cfg.Replicas
	hot := m.hot
	if hot {
		rf = rt.cfg.HotReplicas
	}
	m.replicas = rt.ring.Replicas(id, rf)
	replicas := append([]string(nil), m.replicas...)
	rt.mu.Unlock()

	wait := r.URL.Query().Get("wait")
	ing, perr := rt.ingestAt(r.Context(), id, replicas, wait)
	okCode := http.StatusAccepted
	if httpkit.WantWait(wait) {
		okCode = http.StatusOK
	}
	replyFanOut(w, clusterIngest{ID: id, Replicas: replicas, Hot: hot, Statuses: ing}, perr, okCode, &rt.met.ingestPart)
}

// replyFanOut answers a fanned-out write: okCode when every replica took
// it, 202 with the *PartialError detail (counted in partial) when some
// did, 502 when none did.
func replyFanOut(w http.ResponseWriter, out clusterIngest, err error, okCode int, partial *atomic.Uint64) {
	code := okCode
	if err != nil {
		out.Error = err.Error()
		code = http.StatusBadGateway
		var pe *PartialError
		if errors.As(err, &pe) {
			partial.Add(1)
			code = http.StatusAccepted
		}
	}
	httpkit.WriteJSON(w, code, out)
}

// ingestAt fans the stored ingest body of id out to the given replicas
// (see fanOut for the outcome tri-state).
func (rt *Router) ingestAt(ctx context.Context, id string, replicas []string, wait string) (map[string]string, error) {
	rt.mu.Lock()
	m := rt.matrices[id]
	if m == nil {
		rt.mu.Unlock()
		return nil, fmt.Errorf("cluster: no stored ingest spec for %q", id)
	}
	body, ct, query := m.body, m.contentType, m.query
	rt.mu.Unlock()
	if httpkit.WantWait(wait) {
		if query != "" {
			query += "&"
		}
		query += "wait=" + url.QueryEscape(wait)
	}
	q := ""
	if query != "" {
		q = "?" + query
	}

	return rt.fanOut(ctx, id, "ingest", replicas, func(target string) (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPut,
			target+"/v1/matrix/"+url.PathEscape(id)+q, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		return req, nil
	}, func(code int, snippet []byte) (string, bool) {
		var st struct {
			State string `json:"state"`
		}
		if json.Unmarshal(snippet, &st) != nil || st.State == "" {
			st.State = "accepted"
		}
		return st.State, code/100 == 2
	})
}

// fanOut sends one request per replica concurrently, each built by build
// and retried per backend, and reads each reply with parse (status code
// and body snippet → the replica's reported state, and whether the
// replica took the write). The per-backend outcome map always comes
// back; the error is nil (all succeeded), a *PartialError (some did), or
// a plain error naming what failed (none did).
func (rt *Router) fanOut(ctx context.Context, id, what string, replicas []string,
	build func(target string) (*http.Request, error), parse func(code int, snippet []byte) (string, bool)) (map[string]string, error) {
	type outcome struct {
		backend string
		status  string
		err     error
	}
	results := make(chan outcome, len(replicas))
	for _, b := range replicas {
		go func(b string) {
			res, err := rt.ingest.Do(ctx, []string{b}, build)
			if err != nil {
				results <- outcome{backend: b, err: err}
				return
			}
			snippet, _ := io.ReadAll(io.LimitReader(res.Resp.Body, errBodyMax))
			res.Resp.Body.Close()
			state, ok := parse(res.Resp.StatusCode, snippet)
			if !ok {
				results <- outcome{backend: b, err: &StatusError{
					Target: b, Code: res.Resp.StatusCode, Body: string(snippet)}}
				return
			}
			results <- outcome{backend: b, status: state}
		}(b)
	}
	statuses := make(map[string]string, len(replicas))
	perr := &PartialError{ID: id, Failed: make(map[string]error)}
	for range replicas {
		o := <-results
		if o.err != nil {
			statuses[o.backend] = o.err.Error()
			perr.Failed[o.backend] = o.err
		} else {
			statuses[o.backend] = o.status
			perr.Succeeded = append(perr.Succeeded, o.backend)
		}
	}
	if len(perr.Failed) == 0 {
		return statuses, nil
	}
	if len(perr.Succeeded) == 0 {
		first := slices.Sorted(maps.Keys(perr.Failed))[0]
		return statuses, fmt.Errorf("cluster: %s of %q failed on every replica: %w", what, id, perr.Failed[first])
	}
	sort.Strings(perr.Succeeded)
	return statuses, perr
}

// ---- evict / status / list ----

func (rt *Router) handleEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.mu.Lock()
	m := rt.matrices[id]
	var replicas []string
	if m != nil {
		replicas = append(replicas, m.replicas...)
		delete(rt.matrices, id)
	}
	rt.mu.Unlock()
	if m == nil {
		httpkit.WriteError(w, http.StatusNotFound, fmt.Errorf("cluster: matrix %q not routed here", id))
		return
	}
	for _, b := range replicas {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodDelete,
			b+"/v1/matrix/"+url.PathEscape(id), nil)
		if err != nil {
			continue
		}
		if resp, err := rt.httpc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// proxyGet relays GET /v1/matrix/{id}+suffix from the healthiest
// replica of id, failing over through the rest.
func (rt *Router) proxyGet(suffix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		res, err := rt.solve.Do(r.Context(), rt.health.Rank(rt.replicasFor(id)), func(target string) (*http.Request, error) {
			return http.NewRequest(http.MethodGet, target+"/v1/matrix/"+url.PathEscape(id)+suffix, nil)
		})
		if err != nil {
			writeExhausted(w, err)
			return
		}
		copyResponse(w, res.Resp)
	}
}

// RouteStatus is one routed matrix in the router's table.
type RouteStatus struct {
	ID       string   `json:"id"`
	Replicas []string `json:"replicas"`
	Hot      bool     `json:"hot"`
	QPS      float64  `json:"qps"`
}

func (rt *Router) handleList(w http.ResponseWriter, _ *http.Request) {
	httpkit.WriteJSON(w, http.StatusOK, rt.Routes())
}

// Routes returns the routing table, sorted by id.
func (rt *Router) Routes() []RouteStatus {
	rt.mu.Lock()
	out := make([]RouteStatus, 0, len(rt.matrices))
	for _, m := range rt.matrices {
		out = append(out, RouteStatus{
			ID: m.id, Replicas: append([]string(nil), m.replicas...),
			Hot: m.hot, QPS: m.qps,
		})
	}
	rt.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ---- probe / rebalance / repair loop ----

func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeOnce()
			rt.rebalanceOnce()
		}
	}
}

// probeOnce actively probes every backend's /healthz.
func (rt *Router) probeOnce() {
	rt.met.probeCycles.Add(1)
	var wg sync.WaitGroup
	for _, b := range rt.cfg.Backends {
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, b+"/healthz", nil)
			if err != nil {
				return
			}
			resp, err := rt.httpc.Do(req)
			if err != nil {
				rt.health.ReportFailure(b, true)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				rt.health.ReportSuccess(b)
			} else {
				rt.health.ReportFailure(b, false)
			}
		}(b)
	}
	wg.Wait()
}

// rebalanceOnce rates each routed matrix's solves over the time since
// the last pass and promotes/demotes replication factors, re-ingesting
// at newly assigned replicas. A matrix's first pass only starts its
// window.
func (rt *Router) rebalanceOnce() {
	now := time.Now()
	var grow []*matrixState
	rt.mu.Lock()
	for id, m := range rt.matrices {
		if !m.since.IsZero() {
			if dt := now.Sub(m.since).Seconds(); dt > 0 {
				m.qps = float64(m.solves) / dt
			}
			switch {
			case !m.hot && m.qps >= rt.cfg.HotQPS && rt.cfg.HotReplicas > len(m.replicas):
				m.hot = true
				m.replicas = rt.ring.Replicas(id, rt.cfg.HotReplicas)
				grow = append(grow, m)
				rt.met.promotions.Add(1)
			case m.hot && m.qps < rt.cfg.HotQPS/4:
				m.hot = false
				m.replicas = rt.ring.Replicas(id, rt.cfg.Replicas)
				rt.met.demotions.Add(1)
				// Demotion only narrows the preferred set; the extra copy is
				// left to the backend's own LRU eviction rather than torn out
				// from under possible in-flight solves.
			}
		}
		m.solves, m.since = 0, now
	}
	rt.mu.Unlock()

	for _, m := range grow {
		rt.mu.Lock()
		replicas := append([]string(nil), m.replicas...)
		rt.mu.Unlock()
		ctx, cancel := context.WithTimeout(rt.ctx, time.Minute)
		rt.restoreAt(ctx, m.id, replicas)
		cancel()
	}
}

// scheduleRepair re-ingests every routed matrix at a backend that
// answered 404/410 — the signature of a restarted (empty-registry) or
// evicted-under-pressure replica. Deduplicated per backend+matrix; runs
// asynchronously so the triggering request is not delayed.
func (rt *Router) scheduleRepair(backend string) {
	rt.mu.Lock()
	var jobs []*matrixState
	for _, m := range rt.matrices {
		for _, b := range m.replicas {
			if b != backend {
				continue
			}
			key := backend + "|" + m.id
			if !rt.repairing[key] {
				rt.repairing[key] = true
				jobs = append(jobs, m)
			}
		}
	}
	rt.mu.Unlock()
	for _, m := range jobs {
		rt.met.repairs.Add(1)
		rt.wg.Add(1)
		go func(id string) {
			defer rt.wg.Done()
			ctx, cancel := context.WithTimeout(rt.ctx, time.Minute)
			rt.restoreAt(ctx, id, []string{backend})
			cancel()
			rt.mu.Lock()
			delete(rt.repairing, backend+"|"+id)
			rt.mu.Unlock()
		}(m.id)
	}
}

// ---- router metrics ----

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var p httpkit.Page
	m := &rt.met
	httpkit.Single(&p, "sptrsv_cluster_solves_total", "counter", "Solve requests entering the router.", m.solves.Load())
	httpkit.Single(&p, "sptrsv_cluster_solves_ok_total", "counter", "Solve requests answered 200.", m.solveOK.Load())
	httpkit.Single(&p, "sptrsv_cluster_retries_total", "counter", "Backend attempts beyond each request's first.", m.retries.Load())
	httpkit.Single(&p, "sptrsv_cluster_failovers_total", "counter", "Solves answered by a non-first-choice replica.", m.failovers.Load())
	httpkit.Single(&p, "sptrsv_cluster_exhausted_total", "counter", "Requests that ran out of retry budget.", m.exhausted.Load())
	httpkit.Single(&p, "sptrsv_cluster_ingests_total", "counter", "Ingest requests entering the router.", m.ingests.Load())
	httpkit.Single(&p, "sptrsv_cluster_ingest_partial_total", "counter", "Ingests that reached only part of the replica set.", m.ingestPart.Load())
	httpkit.Single(&p, "sptrsv_cluster_value_updates_total", "counter", "Streaming value-update requests entering the router.", m.valueUpds.Load())
	httpkit.Single(&p, "sptrsv_cluster_value_update_partial_total", "counter", "Value updates that reached only part of the replica set.", m.valueUpdPrt.Load())
	httpkit.Single(&p, "sptrsv_cluster_hot_promotions_total", "counter", "Matrices promoted to the hot replication factor.", m.promotions.Load())
	httpkit.Single(&p, "sptrsv_cluster_hot_demotions_total", "counter", "Matrices demoted back to the base replication factor.", m.demotions.Load())
	httpkit.Single(&p, "sptrsv_cluster_repairs_total", "counter", "Async re-ingests triggered by a replica answering 404/410.", m.repairs.Load())
	httpkit.Single(&p, "sptrsv_cluster_probe_cycles_total", "counter", "Active health-probe sweeps completed.", m.probeCycles.Load())
	p.Family("sptrsv_cluster_backend_up", "gauge", "Backend usability (1 = up, 0.75 = suspect, 0.5 = half-open, 0 = down).")
	stateVal := map[string]float64{"up": 1, "suspect": 0.75, "half-open": 0.5, "down": 0}
	for _, bh := range rt.health.Snapshot() {
		httpkit.Sample(&p, "sptrsv_cluster_backend_up", stateVal[bh.State], "backend", bh.Backend)
	}
	p.Family("sptrsv_cluster_matrix_replicas", "gauge", "Current replica count per routed matrix.")
	for _, rs := range rt.Routes() {
		httpkit.Sample(&p, "sptrsv_cluster_matrix_replicas", len(rs.Replicas), "matrix", rs.ID)
	}
	p.Serve(w)
}
