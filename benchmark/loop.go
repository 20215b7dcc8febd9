package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// callFn performs one operation for client c on right-hand side i and
// returns the answer. It is the only thing a depth of the stack has to
// provide; everything else about a closed loop is shared.
type callFn func(ctx context.Context, c, i int) ([]float64, error)

// phase is one consecutive child interval of a call, for the trace.
type phase struct {
	name string
	dur  time.Duration
}

type loopConfig struct {
	clients        int
	warmup, window time.Duration
	call           callFn
	// alt, when set, takes call's place in every other tenth of the
	// window (warm-up included), so two variants of one loop are measured
	// interleaved in time and the host's slow drift cancels between them.
	alt callFn
	or  *oracle
	// traceName, when set, records one root span per call under this
	// name — per alt call only, when there is an alt; phases (optional)
	// returns the child phases of the call that client c just made.
	traceName string
	phases    func(c int) []phase
	// background (optional) runs beside the clients from the start of
	// the warm-up until the window closes: the open-loop writer.
	background func(ctx context.Context, windowStart time.Time, window time.Duration)
}

type loopResult struct {
	samples   []sample // every completed call, warm-up included (end < 0)
	attempted int64    // calls completed and verified, warm-up included
	failed    int64    // errors, refusals, timeouts and wrong answers among them
	spans     []span
}

// altSlices is how many slices of the window an alternating loop
// switches variants on.
const altSlices = 10

// altSlice numbers the slices from the start of the window, so each
// variant gets exactly half of it; the offset keeps the warm-up's
// negative times on the same grid.
func altSlice(sinceWindowStart, window time.Duration) int {
	return int((sinceWindowStart + 100*window) * altSlices / window)
}

// failureLog rate-limits the description of failed operations on stderr.
var failureLog atomic.Int64

func logFailure(what string, err error) {
	if failureLog.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "benchmark: failed operation: %s: %v\n", what, err)
	}
}

// runLoop drives cfg.clients closed-loop callers: each sends its next
// call only after the previous one is answered, cycling through its own
// rhsPerClient right-hand sides, from the start of the warm-up until the
// window closes. Every answer is verified against the oracle after its
// span is closed.
func runLoop(cfg loopConfig) loopResult {
	windowStart := time.Now().Add(cfg.warmup)
	deadline := windowStart.Add(cfg.window)
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(opTimeout))
	defer cancel()

	perClient := make([]loopResult, cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &perClient[c]
			res.samples = make([]sample, 0, 1<<14)
			if cfg.traceName != "" {
				res.spans = make([]span, 0, 1<<14)
			}
			for iter := 0; time.Now().Before(deadline); iter++ {
				i := c*rhsPerClient + iter%rhsPerClient
				octx, ocancel := context.WithTimeout(ctx, opTimeout)
				t0 := time.Now()
				call, useAlt := cfg.call, false
				if cfg.alt != nil && altSlice(t0.Sub(windowStart), cfg.window)%2 == 1 {
					call, useAlt = cfg.alt, true
				}
				x, err := call(octx, c, i)
				t1 := time.Now()
				ocancel()

				res.attempted++
				if err := cfg.or.verify(i, x, err, anySet); err != nil {
					res.failed++
					logFailure(fmt.Sprintf("client %d rhs %d", c, i), err)
				}
				res.samples = append(res.samples, sample{end: t1.Sub(windowStart), dur: t1.Sub(t0), alt: useAlt})
				if cfg.traceName != "" && (cfg.alt == nil || useAlt) {
					req := int64(c)<<32 | int64(iter)
					res.spans = append(res.spans, span{Name: cfg.traceName, Req: req, Parent: -1,
						StartNs: t0.Sub(windowStart).Nanoseconds(), EndNs: t1.Sub(windowStart).Nanoseconds()})
					if cfg.phases != nil {
						at := t0.Sub(windowStart)
						for _, p := range cfg.phases(c) {
							res.spans = append(res.spans, span{Name: p.name, Req: req, Parent: 0,
								StartNs: at.Nanoseconds(), EndNs: (at + p.dur).Nanoseconds()})
							at += p.dur
						}
					}
				}
			}
		}(c)
	}
	if cfg.background != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg.background(ctx, windowStart, cfg.window)
		}()
	}
	wg.Wait()

	var out loopResult
	for _, r := range perClient {
		out.samples = append(out.samples, r.samples...)
		out.spans = append(out.spans, r.spans...)
		out.attempted += r.attempted
		out.failed += r.failed
	}
	return out
}
