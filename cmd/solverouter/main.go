// Command solverouter is the cluster front end over N solved backends:
// one HTTP endpoint that consistent-hashes matrix ids across the
// backends (replicating each on at least -replicas of them, more when
// the solves it routes for a matrix say the matrix is hot), health-checks
// the backends, and retries/fails over so that a SIGKILLed backend costs
// latency, never an answer.
//
// Endpoints mirror solved's (see internal/cluster):
//
//	PUT  /v1/matrix/{id}   ingest, fanned out to every replica
//	POST /v1/solve/{id}    solve, routed to the healthiest replica
//	GET  /v1/matrix/{id}   status from the healthiest replica
//	GET  /v1/matrices      the routing table
//	GET  /metrics          router counters + per-backend health gauges
//
// Usage:
//
//	solverouter -addr :8040 -backends http://127.0.0.1:8041,http://127.0.0.1:8042
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
	"strings"
	"syscall"
	"time"

	"sptrsv/internal/cluster"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("solverouter: ")
	var (
		addr           = flag.String("addr", ":8040", "listen address (host:port; port 0 picks an ephemeral port)")
		backends       = flag.String("backends", "", "comma-separated solved base URLs (required), e.g. http://127.0.0.1:8041,http://127.0.0.1:8042")
		replicas       = flag.Int("replicas", 0, "base replication factor per matrix (0 = 2)")
		hotReplicas    = flag.Int("hot-replicas", 0, "replication factor of a hot matrix (0 = replicas+1)")
		hotQPS         = flag.Float64("hot-qps", 0, "routed solves per second promoting a matrix to the hot factor (0 = 50)")
		probeInterval  = flag.Duration("probe-interval", 0, "health-probe and rebalance period (0 = 1s)")
		attempts       = flag.Int("attempts", 0, "retry budget per routed solve (0 = 2×backends)")
		attemptTimeout = flag.Duration("attempt-timeout", 0, "per-attempt bound before failing over from a stalled backend (0 = 30s)")
		drainTimeout   = flag.Duration("draintimeout", 30*time.Second, "graceful-shutdown bound for in-flight requests")
	)
	flag.Parse()

	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, strings.TrimRight(b, "/"))
		}
	}
	if len(urls) == 0 {
		log.Fatal("no backends: pass -backends with at least one solved URL")
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:       urls,
		Replicas:       *replicas,
		HotReplicas:    *hotReplicas,
		HotQPS:         *hotQPS,
		ProbeInterval:  *probeInterval,
		SolveAttempts:  *attempts,
		AttemptTimeout: *attemptTimeout,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// Machine-parseable on purpose: the cluster smoke harness starts us
	// on port 0 and scrapes the port from this line (same convention as
	// solved).
	fmt.Printf("solverouter: listening on %s\n", ln.Addr())
	log.Printf("routing across %d backend(s): %s", len(urls), strings.Join(urls, ", "))

	httpSrv := &http.Server{Handler: rt}
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

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v (forcing close)", err)
		httpSrv.Close()
	}
	rt.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Printf("drained; bye")
}
