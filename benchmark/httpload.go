package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"sptrsv/internal/harness"
	"sptrsv/internal/native"
	"sptrsv/internal/registry"
	"sptrsv/internal/serve"
	"sptrsv/internal/sparse"
	"sptrsv/internal/transport"
)

const octetStream = "application/octet-stream"

// httpLoad is the pair of workloads that go through the serving stack:
// daemon-solve (clients → one daemon) and cluster-update (readers and a
// writer → router → two daemons).
type httpLoad struct {
	spec workloadSpec
	cfg  runConfig
	or   *oracle
	sys  *system // the benchmark's own build of the same system, for the oracle and the native depth

	id     string
	ingest string // JSON ingest spec the daemons build the matrix from
	st     *stack
	reqBuf [][]byte // per client: the encoded request body, reused

	values  [][]byte // per value set: the encoded PUT …/values body
	live    int      // value set the writer installed last
	probe   int      // index of the writer's probe right-hand side
	buildMs []float64
}

func newHTTPLoad(spec workloadSpec, cfg runConfig, sys *system, or *oracle) *httpLoad {
	_, ingest := spec.problem(cfg.short)
	h := &httpLoad{
		spec: spec, cfg: cfg, or: or, sys: sys,
		id: sys.pr.Name, ingest: ingest,
		reqBuf: make([][]byte, spec.Clients+1), // the last slot is the writer's
		probe:  spec.Clients * rhsPerClient,
	}
	for _, a := range or.sets {
		h.values = append(h.values, transport.EncodeBlock(nil, &sparse.Block{N: len(a.Val), M: 1, Data: a.Val}))
	}
	return h
}

// callers is how many goroutines send requests at once: the clients and,
// where there is one, the writer.
func (h *httpLoad) callers() int {
	if h.spec.UpdatesPerSec > 0 {
		return h.spec.Clients + 1
	}
	return h.spec.Clients
}

func (h *httpLoad) solvePath() string  { return "/v1/solve/" + h.id }
func (h *httpLoad) valuesPath() string { return "/v1/matrix/" + h.id + "/values" }

// setup is one cold set-up, problem spec → first answer: listeners up,
// matrix ingested with wait=1 through the workload's entry point, one
// solve. The answer is verified after the clock stops.
func (h *httpLoad) setup(res *result) (time.Duration, error) {
	t0 := time.Now()
	st, err := startStack(h.spec.Backends, h.callers())
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	t1 := time.Now()
	if _, err := st.do(ctx, http.MethodPut, st.entry, "/v1/matrix/"+h.id+"?wait=1", "application/json", []byte(h.ingest), http.StatusOK); err != nil {
		st.close()
		return 0, fmt.Errorf("ingest: %w", err)
	}
	build := time.Since(t1)
	h.st, h.live = st, 0
	x, err := h.viaHTTP(st.entry)(ctx, 0, 0)
	d := time.Since(t0)
	if err != nil {
		st.close()
		return 0, fmt.Errorf("first solve: %w", err)
	}
	res.op("first solve", h.or.verify(0, x, nil, 0))
	h.buildMs = append(h.buildMs, ms(build))
	return d, nil
}

func (h *httpLoad) teardown() {
	if h.st != nil {
		h.st.close()
		h.st = nil
	}
}

// The depths of the peeling, outermost first. Each is the same operation
// — float64s in, float64s out, for client c's right-hand side i —
// entering the stack one layer further down.

// viaHTTP: the wire codec, then a real HTTP request over loopback TCP to
// base (the router or a daemon), through the retrying cluster.Client.
func (h *httpLoad) viaHTTP(base string) callFn {
	return func(ctx context.Context, c, i int) ([]float64, error) {
		h.reqBuf[c] = transport.EncodeBlock(h.reqBuf[c][:0], h.or.rhs[i])
		out, err := h.st.do(ctx, http.MethodPost, base, h.solvePath(), octetStream, h.reqBuf[c], http.StatusOK)
		if err != nil {
			return nil, err
		}
		x, err := transport.DecodeBlock(out)
		if err != nil {
			return nil, err
		}
		return x.Data, nil
	}
}

// viaHandler: the wire codec, then transport.Service.ServeHTTP on an
// in-memory ResponseWriter — no socket, no net/http server or client.
func (h *httpLoad) viaHandler(svc *transport.Service) callFn {
	return func(ctx context.Context, c, i int) ([]float64, error) {
		h.reqBuf[c] = transport.EncodeBlock(h.reqBuf[c][:0], h.or.rhs[i])
		code, out, err := serveInMemory(ctx, svc, http.MethodPost, h.solvePath(), h.reqBuf[c])
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("handler: status %d (%s)", code, firstLine(out))
		}
		x, err := transport.DecodeBlock(out)
		if err != nil {
			return nil, err
		}
		return x.Data, nil
	}
}

// viaRegistry: what the handler does once the body is decoded —
// registry.Acquire, Handle.Server().Solve, Release.
func (h *httpLoad) viaRegistry(reg *registry.Registry) callFn {
	return func(ctx context.Context, _, i int) ([]float64, error) {
		hd, err := reg.Acquire(h.id)
		if err != nil {
			return nil, err
		}
		defer hd.Release()
		return hd.Server().Solve(ctx, h.or.rhs[i].Data)
	}
}

// viaServe: the coalescing server alone.
func (h *httpLoad) viaServe(srv *serve.Server) callFn {
	return func(ctx context.Context, _, i int) ([]float64, error) {
		return srv.Solve(ctx, h.or.rhs[i].Data)
	}
}

// writerStats is what the open-loop writer saw.
type writerStats struct {
	sent          int       // updates sent, warm-up included
	updateToSolve []float64 // ms, due time → probe answered from the new set; window only
	lateMs        float64   // the most the writer started behind its due time; window only
	attempted     int64
	failed        int64
	trace         bool // record spans
	spans         []span
}

// writer returns the open-loop writer: one PUT …/values every
// 1/UpdatesPerSec seconds on a fixed grid of due times, alternating the
// two value sets, each followed by one probe solve that must be answered
// from the set just written. Latency is timed from the due time, so a
// stall is charged to every update it delays.
func (h *httpLoad) writer(ws *writerStats) func(context.Context, time.Time, time.Duration) {
	period := time.Second / time.Duration(h.spec.UpdatesPerSec)
	w := h.spec.Clients // the writer's request-buffer slot
	return func(ctx context.Context, windowStart time.Time, window time.Duration) {
		k := -int(time.Until(windowStart) / period)
		for ; ; k++ {
			due := windowStart.Add(time.Duration(k) * period)
			if !due.Before(windowStart.Add(window)) {
				return
			}
			if wait := time.Until(due); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-ctx.Done():
					t.Stop()
					return
				case <-t.C:
				}
			}
			octx, cancel := context.WithTimeout(ctx, opTimeout)
			sent := time.Now()
			next := 1 - h.live
			_, err := h.st.do(octx, http.MethodPut, h.st.entry, h.valuesPath(), octetStream, h.values[next], http.StatusOK)
			put := time.Now()
			ws.sent++
			ws.attempted++
			if err != nil {
				// 202 (partial fan-out) lands here too: a replica left
				// behind is a failed update.
				ws.failed++
				logFailure("value update", err)
				cancel()
				continue
			}
			h.live = next
			x, err := h.viaHTTP(h.st.entry)(octx, w, h.probe)
			done := time.Now()
			cancel()
			ws.attempted++
			if err := h.or.verify(h.probe, x, err, next); err != nil {
				ws.failed++
				logFailure("probe solve", err)
			}
			if k < 0 {
				continue
			}
			ws.updateToSolve = append(ws.updateToSolve, ms(done.Sub(due)))
			ws.lateMs = max(ws.lateMs, ms(sent.Sub(due)))
			if ws.trace {
				rel := func(t time.Time) int64 { return t.Sub(windowStart).Nanoseconds() }
				req := int64(w)<<32 | int64(k)
				ws.spans = append(ws.spans,
					span{Name: "client.update_to_solve", Req: req, Parent: -1, StartNs: rel(due), EndNs: rel(done)},
					span{Name: "client.put_values", Req: req, Parent: 0, StartNs: rel(sent), EndNs: rel(put)},
					span{Name: "client.probe_solve", Req: req, Parent: 0, StartNs: rel(put), EndNs: rel(done)})
			}
		}
	}
}

// workload runs the workload itself for one window: the closed-loop
// readers at the entry point and, where there is one, the writer. With a
// traceName, spans are recorded in every other tenth of the window.
func (h *httpLoad) workload(window time.Duration, traceName string) (loopResult, *writerStats) {
	cfg := loopConfig{
		clients: h.spec.Clients, warmup: h.cfg.warmup(window), window: window,
		call: h.viaHTTP(h.st.entry), or: h.or, traceName: traceName,
	}
	if traceName != "" {
		cfg.alt = cfg.call
	}
	ws := &writerStats{trace: traceName != ""}
	if h.spec.UpdatesPerSec > 0 {
		cfg.background = h.writer(ws)
	}
	l := runLoop(cfg)
	l.attempted += ws.attempted
	l.failed += ws.failed
	l.spans = append(l.spans, ws.spans...)
	return l, ws
}

// residentBytes is what the daemons themselves account: Σ backends
// registry.Stats().ResidentBytes. The arena part follows the width of
// the last batch, so the system is first quiesced with one solo solve
// per backend, which leaves every arena at width 1 and the number exact.
func (h *httpLoad) residentBytes(res *result) int64 {
	var total int64
	for _, b := range h.st.backends {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		x, err := h.viaHTTP(b.url)(ctx, 0, 0)
		cancel()
		res.op("quiescing solve", h.or.verify(0, x, err, h.live))
		total += b.reg.Stats().ResidentBytes
	}
	return total
}

func (h *httpLoad) measure(res *result) {
	window := h.cfg.window()
	l, ws := h.workload(window, "")
	res.count(l)
	lat := durationsMs(l.samples, window)
	rate, slices := throughput(l.samples, window, 1)
	res.e2e("solve_p50_ms", metric{Value: quantile(lat, 0.5), Samples: len(lat)})
	res.e2e("solves_per_s", metric{Value: rate, Samples: len(lat), SubWindows: slices})
	if len(ws.updateToSolve) > 0 {
		res.e2e("update_to_solve_p50_ms", metric{Value: median(ws.updateToSolve), Samples: len(ws.updateToSolve)})
	}
	res.e2e("resident_mb", metric{Value: float64(h.residentBytes(res)) / 1e6})
}

// serveCounters sums the live generations' serve.Snapshot counters over
// the backends.
type serveCounters struct {
	generation                          int // Σ generation numbers: changes iff some backend swapped
	batches, widthSum, splits, overload float64
	native, answered                    float64
	maxQueue                            int
	busiestAccepted                     uint64
	busiestP50                          time.Duration
}

func (h *httpLoad) serveCounters() serveCounters {
	var c serveCounters
	for _, b := range h.st.backends {
		if st, err := b.reg.Status(h.id); err == nil {
			c.generation += st.Generation
		}
		for _, rs := range b.reg.Resident() {
			if rs.ID != h.id {
				continue
			}
			s := rs.Serve
			c.batches += float64(s.Batches)
			c.widthSum += s.MeanBatchWidth * float64(s.Batches)
			c.splits += float64(s.BatchSplits)
			c.overload += float64(s.RejectedOverload)
			c.native += float64(s.PathNative)
			c.answered += float64(s.PathNative + s.PathSequentialRefine + s.PathMixedRefine + s.PathFloat64Fallback)
			c.maxQueue = max(c.maxQueue, s.MaxQueueDepth)
			if s.Accepted >= c.busiestAccepted {
				c.busiestAccepted, c.busiestP50 = s.Accepted, s.Latency.Quantile(0.5)
			}
		}
	}
	return c
}

// serveRows reports the serve.Snapshot rows for one step. Counters are
// the step's own (end minus start) when no value swap replaced the
// servers in between; a swap starts a new server with fresh counters, so
// then they are the live generation's, i.e. since the last swap.
func (r *result) serveRows(a, b serveCounters) (meanWidth float64) {
	if a.generation == b.generation {
		b.batches -= a.batches
		b.widthSum -= a.widthSum
		b.splits -= a.splits
		b.overload -= a.overload
		b.native -= a.native
		b.answered -= a.answered
	}
	if b.batches > 0 {
		meanWidth = b.widthSum / b.batches
	}
	r.layer("serve.mean_batch_width", meanWidth)
	r.layer("serve.batches", b.batches)
	r.layer("serve.batch_splits", b.splits)
	r.layer("serve.max_queue_depth", float64(b.maxQueue))
	r.layer("serve.rejected_overload", b.overload)
	if b.answered > 0 {
		r.layer("serve.path_native_share", b.native/b.answered)
	}
	r.layer("serve.server_p50_ms", ms(b.busiestP50))
	return meanWidth
}

// refactorizations is the smallest per-backend swap count: with every
// replica updated on every PUT it equals the updates sent, and a replica
// that missed one shows.
func (h *httpLoad) refactorizations() uint64 {
	least := ^uint64(0)
	for _, b := range h.st.backends {
		least = min(least, b.reg.Stats().Refactorizations)
	}
	return least
}

// trace is the per-layer run. First the workload itself, with tracing
// switched on in every other tenth of it. Then the peeling: the readers'
// closed loop is replayed with two adjacent entry depths taking turns,
// and a layer's self time is the p50 at its depth minus the p50 one
// depth down, both from the same loop (an attribution between
// closed-loop medians, not a span — see README).
func (h *httpLoad) trace(res *result) {
	total := h.cfg.window()
	clustered := h.st.router != nil
	pairs := 3 // HTTP|handler, handler|registry, registry|serve
	if clustered {
		pairs = 4 // + router|daemon
	}
	wWork := total * 3 / 10
	wNative := total / 12
	wPair := (total - wWork - wNative) * 9 / 10 / time.Duration(pairs)

	res.layer("order.prepare_ms", ms(h.sys.stages.prepare))
	res.layer("chol.factorize_ms", ms(h.sys.stages.factorize))
	res.layer("registry.build_ms", median(h.buildMs))

	// Depth 0: the workload, with every counter read around it.
	refBefore := h.refactorizations()
	retriesBefore := h.st.retries.Load()
	var routerBefore routerCounts
	if clustered {
		routerBefore = h.routerCounters(res)
	}
	serveBefore := h.serveCounters()
	procBefore := markProc()
	l, ws := h.workload(wWork, "client.solve")
	procAfter := markProc()
	serveAfter := h.serveCounters()
	res.count(l)
	res.spans = append(res.spans, l.spans...)
	res.procRows(procBefore, procAfter, l.attempted)
	p0 := res.clientRows(l, wWork, 1)
	plain, traced := pairedRate(l.samples, wWork, 1)
	res.layer("trace.overhead_pct", 100*(plain-traced)/plain)
	meanWidth := res.serveRows(serveBefore, serveAfter)
	res.layer("client.conns_opened", float64(h.st.connsOpened(h.st.entry)))
	res.Labels["client.conns_expected"] = fmt.Sprint(h.callers())
	retries := float64(h.st.retries.Load() - retriesBefore)
	if h.spec.UpdatesPerSec > 0 {
		res.layer("cluster.updates_sent", float64(ws.sent))
		res.layer("registry.refactorizations", float64(h.refactorizations()-refBefore))
		res.layer("client.writer_late_ms", ws.lateMs)
		if len(ws.updateToSolve) > 0 {
			res.layer("update_to_solve_p50_ms", median(ws.updateToSolve))
		}
	}
	if clustered {
		after := h.routerCounters(res)
		retries += after.retries - routerBefore.retries
		res.layer("cluster.partial_updates", after.partialUpdates-routerBefore.partialUpdates)
		res.layer("cluster.client_retries", retries)
	}

	// The peeling: readers only, two adjacent depths per loop.
	b0 := h.st.backends[0]
	pair := func(outer, inner callFn) (pOuter, pInner, rateInner float64) {
		l := runLoop(loopConfig{clients: h.spec.Clients, warmup: h.cfg.warmup(wPair), window: wPair, call: outer, alt: inner, or: h.or})
		res.count(l)
		pOuter, pInner = pairedP50(l.samples, wPair)
		_, rateInner = pairedRate(l.samples, wPair, 1)
		return pOuter, pInner, rateInner
	}
	accounted := 0.0
	self := func(name string, outer, inner float64) {
		res.layer(name, outer-inner)
		accounted += outer - inner
	}
	if clustered {
		pRouter, pDaemon, _ := pair(h.viaHTTP(h.st.entry), h.viaHTTP(b0.url))
		self("cluster.router_self_ms", pRouter, pDaemon)
	}
	pDaemon, pHandler, _ := pair(h.viaHTTP(b0.url), h.viaHandler(b0.svc))
	self("transport.http_self_ms", pDaemon, pHandler)
	pHandler, pRegistry, _ := pair(h.viaHandler(b0.svc), h.viaRegistry(b0.reg))
	self("transport.handler_self_ms", pHandler, pRegistry)
	hd, err := b0.reg.Acquire(h.id)
	if err != nil {
		res.op("acquiring the serve depth", err)
		return
	}
	pRegistry, pServe, rateServe := pair(h.viaRegistry(b0.reg), h.viaServe(hd.Server()))
	hd.Release()
	self("registry.self_ms", pRegistry, pServe)
	sweep, resid := h.nativeDepth(res, int(meanWidth+0.5), wNative)
	self("serve.self_ms", pServe, sweep+resid)
	accounted += sweep + resid
	res.layer("serve.solve_p50_ms", pServe)
	res.layer("serve.solves_per_s", rateServe)
	res.layer("native.batch_sweep_ms", sweep)
	res.layer("harness.residual_ms", resid)
	// How much of the depth-0 p50 the self times, the sweep and the
	// residual check add up to. The pairs are separate loops, so this is
	// a check on the attribution, not an identity.
	res.layer("trace.peel_accounted_pct", 100*accounted/p0)

	h.codecRows(res)
	if h.spec.UpdatesPerSec > 0 {
		h.updatePeel(res)
	}
}

// routerCounts are the router's own counters the trace reads.
type routerCounts struct{ retries, partialUpdates float64 }

func (h *httpLoad) routerCounters(res *result) (c routerCounts) {
	var err error
	if c.retries, err = h.st.routerCounter("sptrsv_cluster_retries_total"); err != nil {
		res.op("router counters", err)
	}
	if c.partialUpdates, err = h.st.routerCounter("sptrsv_cluster_value_update_partial_total"); err != nil {
		res.op("router counters", err)
	}
	return c
}

// nativeDepth is the innermost depth: what serve's batcher does for one
// batch — native.SolveInto on an N×width block, then harness.RelResidual
// on it — from one caller, at the mean batch width the server formed.
// Every column of every answer is compared to its reference.
func (h *httpLoad) nativeDepth(res *result, width int, d time.Duration) (sweepMs, residMs float64) {
	width = max(width, 1)
	n := h.sys.pr.Sym.N
	var sv *native.Solver
	var built []float64
	for k := 0; k < minSetups; k++ {
		if sv != nil {
			sv.Close()
		}
		t0 := time.Now()
		sv = native.NewSolver(h.sys.f, engineOptions())
		built = append(built, ms(time.Since(t0)))
	}
	defer sv.Close()
	res.layer("native.newsolver_ms", median(built))
	b, x := sparse.NewBlock(n, width), sparse.NewBlock(n, width)
	for j := 0; j < width; j++ {
		for i, v := range h.or.rhs[j%len(h.or.rhs)].Data {
			b.Data[i*width+j] = v
		}
	}
	var sweeps, resids, fwd, bwd []float64
	var last native.Stats
	col := make([]float64, n)
	for deadline := time.Now().Add(d); len(sweeps) < 3 || time.Now().Before(deadline); {
		t0 := time.Now()
		st, err := sv.SolveInto(context.Background(), b, x)
		t1 := time.Now()
		r := harness.RelResidual(h.sys.pr.A, x, b)
		t2 := time.Now()
		if err == nil && !(r <= oracleTol) {
			err = fmt.Errorf("batch residual %g > %g", r, oracleTol)
		}
		for j := 0; err == nil && j < width; j++ {
			for i := range col {
				col[i] = x.Data[i*width+j]
			}
			err = h.or.verify(j%len(h.or.rhs), col, nil, 0)
		}
		res.op("native depth", err)
		last = st
		sweeps, resids = append(sweeps, ms(t1.Sub(t0))), append(resids, ms(t2.Sub(t1)))
		fwd, bwd = append(fwd, ms(st.Forward)), append(bwd, ms(st.Backward))
	}
	res.layer("native.forward_ms", median(fwd))
	res.layer("native.backward_ms", median(bwd))
	res.solverRows(last)
	res.Labels["native.batch_width"] = fmt.Sprint(width)
	return median(sweeps), median(resids)
}

// codecRows times the wire codec on one request-sized block.
func (h *httpLoad) codecRows(res *result) {
	blk := h.or.rhs[0]
	const reps = 200
	var buf []byte
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		buf = transport.EncodeBlock(buf[:0], blk)
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := transport.DecodeBlock(buf); err != nil {
			res.op("decoding an encoded block", err)
			return
		}
	}
	dec := time.Since(t0)
	res.layer("transport.codec_encode_us", float64(enc.Microseconds())/reps)
	res.layer("transport.codec_decode_us", float64(dec.Microseconds())/reps)
	res.layer("transport.bytes_per_request", float64(2*len(buf))) // request and response carry the same shape
}

// updatePeel peels the value-update path with no read traffic: the PUT
// through the router (fan-out to both replicas), the PUT straight at
// each daemon, registry.UpdateValues on each registry, chol.Refactorize
// alone. Each sub-step ends on a probe solve that must be answered from
// the set just installed, and leaves every replica on the same set.
func (h *httpLoad) updatePeel(res *result) {
	samples := 6
	if h.cfg.short {
		samples = 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	timeOp := func(what string, op func(set int) error, perSet int) float64 {
		var took []float64
		for k := 0; k < samples; k++ {
			next := 1 - h.live
			for j := 0; j < perSet; j++ {
				t0 := time.Now()
				err := op(next)
				took = append(took, ms(time.Since(t0)))
				res.op(what, err)
			}
			h.live = next
		}
		x, err := h.viaHTTP(h.st.entry)(ctx, h.spec.Clients, h.probe)
		res.op("probe after "+what, h.or.verify(h.probe, x, err, h.live))
		return median(took)
	}

	viaRouter := timeOp("PUT values through the router", func(set int) error {
		_, err := h.st.do(ctx, http.MethodPut, h.st.entry, h.valuesPath(), octetStream, h.values[set], http.StatusOK)
		return err
	}, 1)
	// Straight at the daemons, one after the other, the same set to each.
	turn := 0
	direct := timeOp("PUT values at a daemon", func(set int) error {
		b := h.st.backends[turn%len(h.st.backends)]
		turn++
		_, err := h.st.do(ctx, http.MethodPut, b.url, h.valuesPath(), octetStream, h.values[set], http.StatusOK)
		return err
	}, len(h.st.backends))
	turn = 0
	inRegistry := timeOp("registry.UpdateValues", func(set int) error {
		b := h.st.backends[turn%len(h.st.backends)]
		turn++
		return b.reg.UpdateValues(h.id, h.or.sets[set].Val)
	}, len(h.st.backends))
	res.layer("cluster.value_fanout_ms", viaRouter-direct)
	res.layer("registry.update_values_ms", inRegistry)

	// chol.Refactorize alone, on the benchmark's own factor. The first
	// call builds the plan, which only the factors it returns carry on;
	// it is not timed, and every timed call starts from its predecessor.
	f, err := h.sys.f.Refactorize(h.or.sets[1])
	if err != nil {
		res.op("chol.Refactorize", err)
		return
	}
	var took []float64
	for k := 0; k < samples; k++ {
		t0 := time.Now()
		nf, err := f.Refactorize(h.or.sets[k%2])
		took = append(took, ms(time.Since(t0)))
		res.op("chol.Refactorize", err)
		if err == nil {
			f = nf
		}
	}
	res.layer("chol.refactorize_ms", median(took))
}
