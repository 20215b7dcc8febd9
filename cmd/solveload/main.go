// Command solveload is the closed-loop load generator for the serving
// layer: a configurable number of clients each submit single-RHS solve
// requests back-to-back against one factor, first through the baseline
// path (per-request harness.SolveRobust, which builds and closes a
// solver every call) and then through the internal/serve server (warm
// solver, batch coalescing) — measuring the aggregate solves/sec both
// ways. This is the serving analogue of the paper's §5 NRHS sweep: the
// speedup column is amortization made visible.
//
// With -url the same closed loop additionally drives a running solved
// daemon (cmd/solved) or cluster router (cmd/solverouter) over HTTP:
// the matrix is ingested under the problem's name (without waiting for
// the build), then the clients hammer POST /v1/solve with the binary
// wire format through a retrying client that honors Retry-After — so
// the report carries a per-status attempt breakdown and the count of
// requests that retried through the build window (or a failover) and
// still succeeded, next to the in-process datapoints.
//
// With -json the run is recorded as a BENCH_JSON document (throughput,
// latency quantiles, path counters, batch-shape statistics) suitable for
// committing under results/.
//
// Usage:
//
//	solveload -grid2d 63x63 -clients 8 -duration 3s -json results/solveload.json
//	solveload -grid2d 31x31 -clients 4 -duration 300ms -nobaseline
//	solveload -grid2d 63x63 -inject nan:40 -duration 1s   # overload/fault drill
//	solveload -grid2d 63x63 -url http://127.0.0.1:8035    # + network datapoint
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/cluster"
	"sptrsv/internal/faultinject"
	"sptrsv/internal/harness"
	"sptrsv/internal/mesh"
	"sptrsv/internal/native"
	"sptrsv/internal/prec"
	"sptrsv/internal/registry"
	"sptrsv/internal/serve"
	"sptrsv/internal/sparse"
	"sptrsv/internal/transport"
)

type sideReport struct {
	Requests     uint64  `json:"requests"`
	Errors       uint64  `json:"errors"`
	Overloaded   uint64  `json:"overloaded"`
	SolvesPerSec float64 `json:"solves_per_sec"`
	P50Ms        float64 `json:"p50_ms,omitempty"`
	P95Ms        float64 `json:"p95_ms,omitempty"`
	P99Ms        float64 `json:"p99_ms,omitempty"`

	// Network-side only: the per-attempt outcome breakdown from the
	// retrying client. StatusCounts keys are HTTP status codes ("503",
	// "429", ...) plus "connect"/"transport" for connection-level
	// failures; a request that retried and then succeeded shows up here
	// AND in RetriedOK, but not in Errors — Errors counts only terminal
	// failures.
	StatusCounts map[string]uint64 `json:"status_counts,omitempty"`
	Retries      uint64            `json:"retries,omitempty"`    // extra attempts beyond each request's first
	RetriedOK    uint64            `json:"retried_ok,omitempty"` // requests that retried and still succeeded
}

type report struct {
	Bench      string         `json:"bench"`
	Problem    string         `json:"problem"`
	N          int            `json:"n"`
	NnzL       int64          `json:"nnz_l"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Clients    int            `json:"clients"`
	DurationS  float64        `json:"duration_s"`
	MaxBatch   int            `json:"max_batch"`
	LingerUs   float64        `json:"linger_us"`
	Precision  string         `json:"precision,omitempty"` // resolved factor storage precision of the served side
	Baseline   *sideReport    `json:"baseline,omitempty"`
	Served     sideReport     `json:"served"`
	Speedup    float64        `json:"speedup,omitempty"` // served/baseline solves-per-sec
	Network    *sideReport    `json:"network,omitempty"` // same closed loop over HTTP (-url)
	NetworkURL string         `json:"network_url,omitempty"`
	Update     *updateReport  `json:"update,omitempty"` // -update: streaming values vs full re-ingest
	Snapshot   serve.Snapshot `json:"snapshot"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("solveload: ")
	var (
		grid2d     = flag.String("grid2d", "63x63", "2-D grid size NXxNY (5-point Laplacian bench problem)")
		problem    = flag.String("problem", "", "suite problem name instead of -grid2d")
		workers    = flag.Int("workers", 0, "native solver workers (0 = GOMAXPROCS)")
		clients    = flag.Int("clients", 2*runtime.GOMAXPROCS(0), "closed-loop client goroutines")
		duration   = flag.Duration("duration", 3*time.Second, "measured duration per side")
		maxBatch   = flag.Int("maxbatch", 30, "serve: max coalesced RHS per sweep")
		linger     = flag.Duration("linger", 200*time.Microsecond, "serve: batch linger window")
		queue      = flag.Int("queue", 0, "serve: admission queue depth (0 = 4×maxbatch)")
		reqTimeout = flag.Duration("reqtimeout", 0, "per-request deadline (0 = none)")
		tol        = flag.Float64("tol", 1e-10, "residual tolerance of the degradation ladder")
		precis     = flag.String("precision", "float64", "precision policy of the served side: float64 | mixed | auto")
		noBaseline = flag.Bool("nobaseline", false, "skip the per-request SolveRobust baseline side")
		inject     = flag.String("inject", "", "fault drill: faultinject spec (panic:S | error:S | stall:S:DUR | nan:S) active on the served side")
		urlFlag    = flag.String("url", "", "also drive a running solved daemon at this base URL (ingests the matrix, then closed-loops POST /v1/solve)")
		update     = flag.Bool("update", false, "with -url: measure update-to-first-solve latency of streaming value updates vs full re-ingest")
		jsonPath   = flag.String("json", "", "write the BENCH_JSON report here (\"1\" = results/solveload.json)")
	)
	flag.Parse()

	policy, err := prec.ParsePolicy(*precis)
	if err != nil {
		log.Fatal(err)
	}
	pr, err := pickPrepared(*problem, *grid2d)
	if err != nil {
		log.Fatal(err)
	}
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: N = %d, nnz(L) = %d, GOMAXPROCS = %d, clients = %d, duration = %s\n",
		pr.Name, pr.Sym.N, pr.Sym.NnzL, runtime.GOMAXPROCS(0), *clients, *duration)

	rep := report{
		Bench: "solveload", Problem: pr.Name,
		N: pr.Sym.N, NnzL: pr.Sym.NnzL,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    *clients, DurationS: duration.Seconds(),
		MaxBatch: *maxBatch, LingerUs: float64(linger.Microseconds()),
	}

	var hook native.TaskHook
	restore := func() {}
	if *inject != "" {
		inj, err := faultinject.Parse(*inject)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fault drill: %s\n", inj)
		hook = inj.Hook()
		if restore, err = inj.Poison(f); err != nil {
			log.Fatal(err)
		}
	}
	defer restore()

	if !*noBaseline {
		base := runSide(pr, *clients, *duration, *reqTimeout, func(ctx context.Context, rhs []float64) error {
			b := &sparse.Block{N: pr.Sym.N, M: 1, Data: rhs}
			_, err := harness.SolveRobust(ctx, pr, f, b, native.Options{Workers: *workers}, *tol)
			return err
		})
		rep.Baseline = &base
		fmt.Printf("baseline (per-request SolveRobust): %8.1f solves/sec  (%d requests, %d errors)\n",
			base.SolvesPerSec, base.Requests, base.Errors)
	}

	srv := serve.New(pr, f, serve.Config{
		Workers: *workers, Precision: policy,
		MaxBatch: *maxBatch, Linger: *linger, QueueDepth: *queue,
		Tol: *tol, TaskHook: hook,
	})
	defer srv.Close()
	served := runSide(pr, *clients, *duration, *reqTimeout, func(ctx context.Context, rhs []float64) error {
		_, err := srv.Solve(ctx, rhs)
		return err
	})
	snap := srv.Snapshot()
	served.P50Ms = float64(snap.Latency.Quantile(0.50)) / float64(time.Millisecond)
	served.P95Ms = float64(snap.Latency.Quantile(0.95)) / float64(time.Millisecond)
	served.P99Ms = float64(snap.Latency.Quantile(0.99)) / float64(time.Millisecond)
	rep.Served = served
	rep.Snapshot = snap
	rep.Precision = snap.Precision
	fmt.Printf("served   (batched warm solver)    : %8.1f solves/sec  (%d requests, %d errors, %d shed)\n",
		served.SolvesPerSec, served.Requests, served.Errors, served.Overloaded)
	fmt.Printf("  batches = %d (mean width %.1f, max %d, splits %d), queue high-water = %d/%d\n",
		snap.Batches, snap.MeanBatchWidth, snap.MaxBatchWidth, snap.BatchSplits, snap.MaxQueueDepth, snap.QueueCap)
	fmt.Printf("  paths: native = %d, sequential+refine = %d, mixed+refine = %d, float64-fallback = %d, cancelled = %d, failed = %d\n",
		snap.PathNative, snap.PathSequentialRefine, snap.PathMixedRefine, snap.PathFloat64Fallback, snap.Cancelled, snap.Failed)
	if snap.Precision != "float64" || snap.RefineIterations > 0 {
		fmt.Printf("  precision: %s (%d refinement iterations)\n", snap.Precision, snap.RefineIterations)
	}
	fmt.Printf("  latency: mean %s, p50 %.3gms, p95 %.3gms, p99 %.3gms\n",
		snap.Latency.Mean.Round(time.Microsecond), served.P50Ms, served.P95Ms, served.P99Ms)
	if rep.Baseline != nil && rep.Baseline.SolvesPerSec > 0 {
		rep.Speedup = served.SolvesPerSec / rep.Baseline.SolvesPerSec
		fmt.Printf("  serving speedup over per-request SolveRobust: %.2f×\n", rep.Speedup)
	}

	if *urlFlag != "" {
		net, err := runNetworkSide(pr, *problem, *grid2d, *urlFlag, *clients, *duration, *reqTimeout)
		if err != nil {
			log.Fatal(err)
		}
		rep.Network = &net
		rep.NetworkURL = *urlFlag
		fmt.Printf("network  (solved daemon via HTTP)  : %8.1f solves/sec  (%d requests, %d errors, %d shed)\n",
			net.SolvesPerSec, net.Requests, net.Errors, net.Overloaded)
		fmt.Printf("  latency (client-observed): p50 %.3gms, p95 %.3gms, p99 %.3gms\n",
			net.P50Ms, net.P95Ms, net.P99Ms)
		if net.Retries > 0 || len(net.StatusCounts) > 0 {
			keys := make([]string, 0, len(net.StatusCounts))
			for k := range net.StatusCounts {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%s×%d", k, net.StatusCounts[k]))
			}
			fmt.Printf("  retries: %d requests retried then succeeded (%d extra attempts); attempt breakdown: %s\n",
				net.RetriedOK, net.Retries, strings.Join(parts, ", "))
		}
	}

	if *update {
		if *urlFlag == "" {
			log.Fatal("-update requires -url")
		}
		ur, err := runUpdateSide(pr, *urlFlag, *tol)
		if err != nil {
			log.Fatal(err)
		}
		rep.Update = ur
		fmt.Printf("update   (streaming values vs full re-ingest, update-to-first-solve):\n")
		fmt.Printf("  full re-ingest : mean %.1fms, p50 %.1fms  (%d samples: DELETE + HB upload + build + solve)\n",
			ur.ReingestMeanMs, ur.ReingestP50Ms, ur.ReingestSamples)
		fmt.Printf("  value update   : mean %.1fms, p50 %.1fms  (%d samples: PUT values + solve)\n",
			ur.UpdateMeanMs, ur.UpdateP50Ms, ur.UpdateSamples)
		fmt.Printf("  update speedup over re-ingest: %.1f×\n", ur.Speedup)
	}

	if *jsonPath != "" {
		path := *jsonPath
		if path == "1" {
			path = "results/solveload.json"
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}

// runNetworkSide drives the same closed loop against a running solved
// daemon or solverouter: the matrix is ingested under the problem's
// name (singleflight on the daemon side makes re-runs cheap) WITHOUT
// waiting for residency, then each client closed-loops POST /v1/solve
// with the binary wire format through a retrying cluster.Client — so
// the build window surfaces as 503-with-Retry-After attempts that are
// retried and then succeed, all visible in the per-status breakdown.
// Latency quantiles are client-observed (retry sleeps included — a
// retried request really did take that long).
func runNetworkSide(pr *harness.Prepared, problem, grid2d, baseURL string, clients int, d, reqTimeout time.Duration) (sideReport, error) {
	spec := fmt.Sprintf(`{"grid2d":%q}`, strings.ToLower(grid2d))
	if problem != "" {
		spec = fmt.Sprintf(`{"problem":%q}`, problem)
	}
	base := strings.TrimRight(baseURL, "/")
	// The load generator must not be what the network series measures:
	// http.DefaultTransport keeps 2 idle connections per host, so any
	// further closed-loop clients would re-dial on every request. Here
	// every client keeps its connection; nothing else about the default
	// transport changes.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no global cap: one host, bounded per host below
	tr.MaxIdleConnsPerHost = clients
	httpc := &http.Client{Transport: tr}
	defer httpc.CloseIdleConnections()
	ingestURL := base + "/v1/matrix/" + url.PathEscape(pr.Name)
	req, err := http.NewRequest(http.MethodPut, ingestURL, strings.NewReader(spec))
	if err != nil {
		return sideReport{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpc.Do(req)
	if err != nil {
		return sideReport{}, fmt.Errorf("ingesting %s at daemon: %w", pr.Name, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return sideReport{}, fmt.Errorf("ingesting %s at daemon: %d (%s)", pr.Name, resp.StatusCode, body)
	}
	fmt.Printf("ingested %s at %s (build in progress; the loop rides the 503 window)\n", pr.Name, baseURL)

	// Per-attempt accounting, fed by the retry client's hook.
	var (
		countsMu     sync.Mutex
		statusCounts = make(map[string]uint64)
		retries      atomic.Uint64
		retriedOK    atomic.Uint64
	)
	record := func(key string) {
		countsMu.Lock()
		statusCounts[key]++
		countsMu.Unlock()
	}
	cli := &cluster.Client{
		HTTP:          httpc,
		MaxAttempts:   8,
		MaxRetryAfter: 2 * time.Second, // a closed loop should probe again soon, not park
		OnAttempt: func(a cluster.Attempt) {
			switch {
			case a.Err != nil && a.Connect:
				record("connect")
			case a.Err != nil:
				record("transport")
			case a.Status != http.StatusOK:
				record(fmt.Sprint(a.Status))
			}
		},
	}

	solvePath := "/v1/solve/" + url.PathEscape(pr.Name)
	var rec latRecorder
	rep := runSideRec(pr, clients, d, reqTimeout, &rec, func(ctx context.Context, rhs []float64) error {
		b := transport.EncodeBlock(nil, &sparse.Block{N: pr.Sym.N, M: 1, Data: rhs})
		res, err := cli.Do(ctx, []string{base}, func(target string) (*http.Request, error) {
			req, err := http.NewRequest(http.MethodPost, target+solvePath, bytes.NewReader(b))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", "application/octet-stream")
			return req, nil
		})
		if err != nil {
			var se *cluster.StatusError
			if errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
				return &serve.OverloadError{}
			}
			return err
		}
		out, err := io.ReadAll(res.Resp.Body)
		res.Resp.Body.Close()
		if err != nil {
			return err
		}
		if res.Attempts > 1 {
			retries.Add(uint64(res.Attempts - 1))
			retriedOK.Add(1)
		}
		if res.Resp.StatusCode != http.StatusOK {
			return fmt.Errorf("solve: %d (%s)", res.Resp.StatusCode, out)
		}
		x, err := transport.DecodeBlock(out)
		if err != nil {
			return err
		}
		if x.N != pr.Sym.N || x.M != 1 {
			return fmt.Errorf("daemon returned a %dx%d solution, want %dx1", x.N, x.M, pr.Sym.N)
		}
		return nil
	})
	rep.P50Ms = rec.quantileMs(0.50)
	rep.P95Ms = rec.quantileMs(0.95)
	rep.P99Ms = rec.quantileMs(0.99)
	rep.Retries = retries.Load()
	rep.RetriedOK = retriedOK.Load()
	countsMu.Lock()
	if len(statusCounts) > 0 {
		rep.StatusCounts = statusCounts
	}
	countsMu.Unlock()
	return rep, nil
}

// latRecorder collects client-observed request latencies so the network
// side can report quantiles without a server-side snapshot.
type latRecorder struct {
	mu sync.Mutex
	ms []float64
}

func (r *latRecorder) add(d time.Duration) {
	r.mu.Lock()
	r.ms = append(r.ms, float64(d)/float64(time.Millisecond))
	r.mu.Unlock()
}

// quantileMs returns the q-quantile of the recorded latencies in
// milliseconds (0 when nothing was recorded).
func (r *latRecorder) quantileMs(q float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ms) == 0 {
		return 0
	}
	sort.Float64s(r.ms)
	i := int(q * float64(len(r.ms)))
	if i >= len(r.ms) {
		i = len(r.ms) - 1
	}
	return r.ms[i]
}

// runSide drives one closed loop: clients goroutines each cycling through
// a private set of right-hand sides, submitting as fast as answers come
// back, until the duration elapses.
func runSide(pr *harness.Prepared, clients int, d, reqTimeout time.Duration, solve func(context.Context, []float64) error) sideReport {
	return runSideRec(pr, clients, d, reqTimeout, nil, solve)
}

// runSideRec is runSide with an optional client-side latency recorder.
func runSideRec(pr *harness.Prepared, clients int, d, reqTimeout time.Duration, rec *latRecorder, solve func(context.Context, []float64) error) sideReport {
	var requests, errs, overloaded atomic.Uint64
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// A handful of pre-generated RHS per client: realistic variety
			// without paying RNG cost inside the measured loop.
			rhss := make([][]float64, 8)
			for i := range rhss {
				rhss[i] = mesh.RandomRHS(pr.Sym.N, 1, int64(1000*c+i+1)).Data
			}
			for i := 0; time.Now().Before(deadline); i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if reqTimeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, reqTimeout)
				}
				t0 := time.Now()
				err := solve(ctx, rhss[i%len(rhss)])
				if rec != nil {
					rec.add(time.Since(t0))
				}
				if cancel != nil {
					cancel()
				}
				requests.Add(1)
				if err != nil {
					errs.Add(1)
					var oe *serve.OverloadError
					if errors.As(err, &oe) {
						overloaded.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	rep := sideReport{Requests: requests.Load(), Errors: errs.Load(), Overloaded: overloaded.Load()}
	ok := rep.Requests - rep.Errors
	rep.SolvesPerSec = float64(ok) / d.Seconds()
	return rep
}

func pickPrepared(problem, grid2d string) (*harness.Prepared, error) {
	if problem != "" {
		prob, err := mesh.ByName(problem)
		if err != nil {
			return nil, err
		}
		return harness.Prepare(prob), nil
	}
	nx, ny, err := registry.ParseGrid2D(grid2d)
	if err != nil {
		return nil, err
	}
	return harness.Prepare(mesh.Problem{
		Name: fmt.Sprintf("GRID2D-%dx%d", nx, ny), PaperRef: "serving bench problem",
		A: mesh.Grid2D(nx, ny), Geom: mesh.Grid2DGeometry(nx, ny),
	}), nil
}
