// Command spdsolve runs the complete parallel direct-solution pipeline on
// one problem: nested-dissection ordering, symbolic analysis, parallel
// multifrontal Cholesky factorization (2-D block-cyclic), redistribution
// to the solvers' 1-D layout, and parallel forward/backward substitution,
// all on the simulated distributed-memory machine.
//
// With -native the same prepared problem instead runs through the
// hardened shared-memory path (ladder.Run): native parallel
// solve with breakdown detection, falling back to sequential solve plus
// iterative refinement, reporting which rung produced the answer.
// -timeout bounds the whole solve either way.
//
// With -serve the problem is stood up behind the internal/serve serving
// layer instead: -nrhs concurrent clients push single-RHS requests
// through the coalescing server for a short demo run, and the server's
// metrics snapshot is printed. Adding -listen turns the demo into a
// one-matrix daemon: the prepared problem is registered in an
// internal/registry and exposed over HTTP (internal/transport) at the
// given address until SIGINT/SIGTERM — the single-matrix cousin of
// cmd/solved.
//
// Usage:
//
//	spdsolve -problem GRID2D-127 -p 64 -nrhs 4
//	spdsolve -grid2d 63x63 -p 16 -b 4 -rowpriority
//	spdsolve -cube 12 -p 8 -nrhs 30
//	spdsolve -grid2d 63x63 -native -p 8 -timeout 30s
//	spdsolve -grid2d 63x63 -serve -nrhs 8
//	spdsolve -grid2d 63x63 -serve -listen :8035
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/harness"
	"sptrsv/internal/ladder"
	"sptrsv/internal/mesh"
	"sptrsv/internal/native"
	"sptrsv/internal/registry"
	"sptrsv/internal/serve"
	"sptrsv/internal/sparse"
	"sptrsv/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spdsolve: ")
	var (
		problem     = flag.String("problem", "", "suite problem name (GRID2D-127, SHELL-32x32x4, GRID2D9-96, CUBE-20, ANISO-160x80)")
		grid2d      = flag.String("grid2d", "", "2-D grid size NXxNY (5-point Laplacian)")
		cube        = flag.Int("cube", 0, "3-D cube side (7-point Laplacian)")
		mmFile      = flag.String("mm", "", "read the matrix from a MatrixMarket file (graph nested dissection)")
		hbFile      = flag.String("hb", "", "read the matrix from a Harwell-Boeing RSA file")
		p           = flag.Int("p", 16, "number of processors (power of two)")
		b           = flag.Int("b", 8, "solver block size (the paper's b)")
		bfact       = flag.Int("bfact", 32, "factorization panel width")
		nrhs        = flag.Int("nrhs", 1, "number of right-hand sides")
		rowPriority = flag.Bool("rowpriority", false, "use the row-priority pipelined variant (Fig. 3b)")
		exact       = flag.Bool("exact", false, "disable supernode amalgamation")
		nativeRun   = flag.Bool("native", false, "solve with the hardened native shared-memory path (workers = -p) instead of the simulator")
		serveRun    = flag.Bool("serve", false, "demo the serving layer: -nrhs concurrent clients through the coalescing server")
		listen      = flag.String("listen", "", "with -serve: expose the prepared matrix over HTTP at this address until SIGINT (one-matrix daemon)")
		timeout     = flag.Duration("timeout", 0, "overall solve deadline (0 = none)")
	)
	flag.Parse()

	pr, err := prepareProblem(*problem, *grid2d, *cube, *mmFile, *hbFile, *exact)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (%s)\n", pr.Name, pr.PaperRef)
	fmt.Printf("N = %d, nnz(A) = %d, nnz(L) = %d, supernodes = %d\n",
		pr.Sym.N, pr.A.NNZFull(), pr.Sym.NnzL, pr.Sym.NSuper)
	fmt.Printf("factorization opcount = %.2f Mflop, FBsolve opcount/RHS = %.3f Mflop\n\n",
		float64(pr.Sym.FactorFlops)/1e6, float64(pr.Sym.SolveFlopsPerRHS)/1e6)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *nativeRun {
		if err := runHardenedNative(ctx, pr, *p, *nrhs); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *serveRun {
		var err error
		if *listen != "" {
			err = runServeListen(pr, *p, *listen)
		} else {
			err = runServeDemo(ctx, pr, *p, *nrhs)
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg := harness.DefaultConfig(*p)
	cfg.B = *b
	cfg.BFact = *bfact
	cfg.NRHS = *nrhs
	cfg.RowPriority = *rowPriority
	res, err := harness.Run(pr, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("p = %d, b = %d, NRHS = %d (virtual Cray-T3D-class machine)\n", *p, *b, *nrhs)
	fmt.Printf("  numerical factorization : %10.4f s   %8.1f MFLOPS\n",
		res.Factor.Time, res.Factor.MFLOPS())
	fmt.Printf("  redistribute L (2-D→1-D): %10.4f s   %8d words moved\n",
		res.Redist.Time, res.Redist.Words)
	fmt.Printf("  FBsolve (fwd+bwd)       : %10.4f s   %8.1f MFLOPS\n",
		res.Solve.Time, res.Solve.MFLOPS())
	fmt.Printf("  redistribution/solve ratio: %.2f\n", res.Redist.Time/res.Solve.Time)
	fmt.Printf("  relative residual       : %.3g\n", res.Residual)
	if res.Residual > 1e-8 {
		// The simulated solve missed tolerance. Before declaring failure,
		// climb the degradation ladder on real hardware: native parallel
		// solve, then sequential solve + iterative refinement.
		fmt.Printf("  residual too large — attempting hardened native recovery\n")
		if err := runHardenedNative(ctx, pr, *p, *nrhs); err != nil {
			log.Fatalf("solve failed: simulated residual %.3g and %v", res.Residual, err)
		}
	}
}

// runHardenedNative factorizes sequentially and climbs the float64
// degradation ladder on a native solver it builds and closes, reporting
// which rung produced the answer.
func runHardenedNative(ctx context.Context, pr *harness.Prepared, workers, nrhs int) error {
	t0 := time.Now()
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		return err
	}
	factorTime := time.Since(t0)
	sv := native.NewSolver(f, native.Options{Workers: workers})
	defer sv.Close()
	b := mesh.RandomRHS(pr.Sym.N, nrhs, 1)
	t0 = time.Now()
	res, err := ladder.Run(ctx, pr.A, ladder.Float64(sv), b, 1e-10, nil)
	if err != nil {
		return err
	}
	fmt.Printf("hardened native path (workers = %d, NRHS = %d)\n", workers, nrhs)
	fmt.Printf("  sequential factorization: %12s\n", factorTime.Round(time.Microsecond))
	fmt.Printf("  solve                   : %12s   via %q\n", time.Since(t0).Round(time.Microsecond), res.Path)
	if last := res.Tried[len(res.Tried)-1]; len(res.Tried) > 1 {
		fmt.Printf("  native rung failed      : %v\n", res.Tried[0].Err)
		fmt.Printf("  refinement              : %d iters, %s\n", last.Iters, last.Reason)
	}
	fmt.Printf("  relative residual       : %.3g\n", res.Residual)
	return nil
}

// runServeDemo factorizes, stands the factor up behind the serving
// layer, and drives it with nrhs concurrent closed-loop clients for one
// second — then prints the server's own accounting of what happened.
func runServeDemo(ctx context.Context, pr *harness.Prepared, workers, clients int) error {
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		return err
	}
	if clients < 1 {
		clients = 1
	}
	srv := serve.New(pr.A, f, serve.Config{Workers: workers})
	defer srv.Close()
	const demo = time.Second
	fmt.Printf("serving layer demo (workers = %d, clients = %d, %s)\n", workers, clients, demo)
	deadline := time.Now().Add(demo)
	var solved atomic.Uint64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rhs := mesh.RandomRHS(pr.Sym.N, 1, int64(c+1)).Data
			for time.Now().Before(deadline) && ctx.Err() == nil {
				if _, err := srv.Solve(ctx, rhs); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				solved.Add(1)
			}
		}(c)
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return err
	}
	snap := srv.Snapshot()
	fmt.Printf("  served                  : %d solves (%.1f solves/sec)\n",
		solved.Load(), float64(solved.Load())/demo.Seconds())
	fmt.Printf("  batches                 : %d (mean width %.1f, max %d, splits %d)\n",
		snap.Batches, snap.MeanBatchWidth, snap.MaxBatchWidth, snap.BatchSplits)
	fmt.Printf("  paths                   : native = %d, sequential+refine = %d\n",
		snap.PathNative, snap.PathSequentialRefine)
	fmt.Printf("  latency                 : mean %s, p50 %s, p99 %s\n",
		snap.Latency.Mean.Round(time.Microsecond),
		snap.Latency.Quantile(0.50), snap.Latency.Quantile(0.99))
	return nil
}

// runServeListen registers the prepared matrix in a one-entry registry
// and serves it over HTTP until SIGINT/SIGTERM — the single-matrix
// flavour of cmd/solved (same endpoints, same wire format).
func runServeListen(pr *harness.Prepared, workers int, addr string) error {
	reg := registry.New(registry.Config{Serve: serve.Config{Workers: workers}})
	if err := reg.Register(pr.Name, registry.PreparedSource(pr.A, pr.Sym)); err != nil {
		return err
	}
	h, err := reg.AcquireWait(pr.Name, nil)
	if err != nil {
		return err
	}
	h.Release()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving %s on %s\n", pr.Name, ln.Addr())
	fmt.Printf("  solve  : POST http://%s/v1/solve/%s\n", ln.Addr(), url.PathEscape(pr.Name))
	fmt.Printf("  metrics: GET  http://%s/metrics\n", ln.Addr())

	httpSrv := &http.Server{Handler: transport.New(reg)}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("received %s; draining\n", sig)
	case err := <-errc:
		return err
	}
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		httpSrv.Close()
	}
	reg.Close()
	return nil
}

// prepareProblem orders and analyzes the one matrix the flags select: a
// suite problem or generated mesh (-problem, -grid2d, -cube, read as a
// registry.Spec), a matrix file (-mm, -hb; graph nested dissection, as
// files carry no geometry), or GRID2D-127 when none is given. Naming two
// sources is an error.
func prepareProblem(name, grid2d string, cube int, mmFile, hbFile string, exact bool) (*harness.Prepared, error) {
	set := 0
	for _, on := range []bool{name != "", grid2d != "", cube > 0, mmFile != "", hbFile != ""} {
		if on {
			set++
		}
	}
	var (
		prob mesh.Problem
		err  error
	)
	switch {
	case set > 1:
		return nil, errors.New("use only one of -problem, -grid2d, -cube, -mm, -hb")
	case mmFile != "":
		prob, err = readProblem(mmFile, sparse.ReadMatrixMarket)
	case hbFile != "":
		prob, err = readProblem(hbFile, sparse.ReadHarwellBoeing)
	case set == 0:
		fmt.Fprintln(os.Stderr, "no problem selected; defaulting to GRID2D-127")
		prob, err = mesh.ByName("GRID2D-127")
	default:
		prob, err = registry.Spec{Grid2D: grid2d, Cube: cube, Problem: name}.Mesh()
	}
	if err != nil {
		return nil, err
	}
	if exact {
		return harness.PrepareExact(prob), nil
	}
	return harness.Prepare(prob), nil
}

// readProblem loads a matrix file as a problem without geometry.
func readProblem(path string, read func(io.Reader) (*sparse.SymCSC, error)) (mesh.Problem, error) {
	f, err := os.Open(path)
	if err != nil {
		return mesh.Problem{}, err
	}
	defer f.Close()
	a, err := read(f)
	if err != nil {
		return mesh.Problem{}, err
	}
	return mesh.Problem{Name: path, PaperRef: "user matrix", A: a}, nil
}
