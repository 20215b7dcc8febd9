// Command solved is the sparse triangular-solve daemon: the network
// front end over the multi-matrix registry. It factors matrices once
// (on ingest) and then serves solve traffic against the warm,
// coalescing per-matrix servers — the paper's amortization, behind
// HTTP.
//
// Endpoints (see internal/transport):
//
//	PUT  /v1/matrix/{id}        ingest a mesh spec (JSON) or Harwell-Boeing body
//	PUT  /v1/matrix/{id}/values streaming value update (nnz×1 binary block):
//	                            refactorize on the cached symbolic analysis and
//	                            hot-swap the warm server, no re-ingest
//	GET  /v1/matrix/{id}/values current values (nnz×1 binary block)
//	POST /v1/solve/{id}         binary float64 solve round-trip
//	GET  /v1/matrix/{id}        lifecycle status
//	GET  /metrics               Prometheus text (per-matrix serve snapshots +
//	                            registry gauges, refactorization counters)
//
// Shutdown is graceful: SIGTERM/SIGINT stop admission, wait out
// in-flight requests (bounded by -draintimeout), then drain the
// registry so no solve is torn down mid-sweep.
//
// Usage:
//
//	solved -addr :8035 -budget-mb 512
//	solved -addr 127.0.0.1:0 -preload demo=grid2d:63x63   # ephemeral port
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sptrsv/internal/prec"
	"sptrsv/internal/registry"
	"sptrsv/internal/rowops"
	"sptrsv/internal/serve"
	"sptrsv/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("solved: ")
	var (
		addr         = flag.String("addr", ":8035", "listen address (host:port; port 0 picks an ephemeral port)")
		budgetMB     = flag.Float64("budget-mb", 0, "resident-bytes budget in MiB across all matrices (0 = unlimited)")
		workers      = flag.Int("workers", 0, "native solver workers per matrix (0 = GOMAXPROCS)")
		precis       = flag.String("precision", "float64", "default precision policy per matrix: float64 | mixed | auto (mixed stores factors in float32 and recovers float64 accuracy by refinement; auto decides per matrix from a condition estimate)")
		maxBatch     = flag.Int("maxbatch", 0, "serve: max coalesced RHS per sweep (0 = 30)")
		linger       = flag.Duration("linger", 0, "serve: batch linger window (0 = 200µs)")
		queue        = flag.Int("queue", 0, "serve: admission queue depth (0 = 4×maxbatch)")
		tol          = flag.Float64("tol", 0, "residual tolerance of the degradation ladder (0 = 1e-10)")
		preload      = flag.String("preload", "", "comma-separated id=spec matrices to build at startup (spec: grid2d:NXxNY | cube:N | problem:NAME)")
		drainTimeout = flag.Duration("draintimeout", 30*time.Second, "graceful-shutdown bound for in-flight requests")
	)
	flag.Parse()

	policy, err := prec.ParsePolicy(*precis)
	if err != nil {
		log.Fatal(err)
	}
	reg := registry.New(registry.Config{
		MaxResidentBytes: int64(*budgetMB * (1 << 20)),
		Serve: serve.Config{
			Workers: *workers, Precision: policy,
			MaxBatch: *maxBatch, Linger: *linger, QueueDepth: *queue, Tol: *tol,
		},
	})
	log.Printf("multi-RHS sweeps run on vector ISA %s", rowops.VectorISA())
	if err := preloadMatrices(reg, *preload); err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The resolved address line is machine-parseable on purpose: the
	// smoke harness starts us on port 0 and scrapes the port from here.
	fmt.Printf("solved: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: transport.New(reg)}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("received %s; draining", sig)
	case err := <-errc:
		log.Fatal(err)
	}

	// Graceful drain: stop accepting, wait out in-flight HTTP requests,
	// then close the registry (which itself waits for handle releases
	// and in-flight batches).
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v (forcing close)", err)
		httpSrv.Close()
	}
	reg.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Printf("drained; bye")
}

// preloadMatrices registers every id=spec pair and waits until each is
// resident, so a daemon started with -preload answers its first solve
// without a 503 window.
func preloadMatrices(reg *registry.Registry, preload string) error {
	if preload == "" {
		return nil
	}
	var ids []string
	for _, pair := range strings.Split(preload, ",") {
		id, spec, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || id == "" {
			return fmt.Errorf("bad -preload entry %q (want id=spec)", pair)
		}
		src, err := parseSpec(spec)
		if err != nil {
			return err
		}
		if err := reg.Register(id, src); err != nil {
			return err
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		h, err := reg.AcquireWait(id, nil)
		if err != nil {
			return fmt.Errorf("preload %s: %w", id, err)
		}
		st, _ := reg.Status(id)
		log.Printf("preloaded %s: N = %d, nnz(L) = %d, precision = %s", id, st.N, st.NnzL, st.Precision)
		h.Release()
	}
	return nil
}

// parseSpec tokenises the -preload spec grammar (kind:arg) into a
// registry.Spec.
func parseSpec(spec string) (registry.Source, error) {
	kind, arg, _ := strings.Cut(spec, ":")
	var rs registry.Spec
	switch kind {
	case "grid2d":
		rs.Grid2D = arg
	case "cube":
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("bad cube spec %q (want cube:N)", spec)
		}
		rs.Cube = n
	case "problem":
		rs.Problem = arg
	default:
		return nil, fmt.Errorf("unknown matrix spec kind %q (want grid2d | cube | problem)", kind)
	}
	return rs.Source()
}
