package serve

import (
	"sync/atomic"
	"time"

	"sptrsv/internal/refine"
)

// This file is the server's instrumentation: lock-free atomic counters,
// gauges, and fixed-bucket histograms updated on the request and batch
// paths, exposed through a cheap copying Snapshot API. Nothing here
// allocates on the hot path; Snapshot allocates only its own bucket
// slices, so operators can poll it at high frequency without perturbing
// the solver.

// latencyBounds are the request-latency histogram bucket upper bounds
// (log-spaced from 50µs to 5s; an implicit +Inf bucket catches the rest).
var latencyBounds = []time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
	500 * time.Microsecond, 1 * time.Millisecond, 2500 * time.Microsecond,
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, 1 * time.Second, 2500 * time.Millisecond,
	5 * time.Second,
}

// widthBounds are the batch-width histogram bucket upper bounds (widths
// above the last bound land in the implicit overflow bucket).
var widthBounds = []int{1, 2, 4, 8, 16, 32, 64}

// metrics is the server's internal mutable instrumentation.
type metrics struct {
	accepted         atomic.Uint64
	rejectedOverload atomic.Uint64
	rejectedInvalid  atomic.Uint64
	cancelled        atomic.Uint64
	failed           atomic.Uint64
	pathNative       atomic.Uint64
	pathSeqRefine    atomic.Uint64
	pathMixedRefine  atomic.Uint64
	pathF64Fallback  atomic.Uint64

	// refineIters accumulates mixed-precision refinement iterations (each
	// one more sweep); the fb* counters attribute float64-fallback
	// activations to the refine.Reason that triggered them.
	refineIters atomic.Uint64
	fbStagnated atomic.Uint64
	fbNonFinite atomic.Uint64
	fbMaxIter   atomic.Uint64

	batches     atomic.Uint64
	batchSplits atomic.Uint64
	widthSum    atomic.Uint64
	maxWidth    atomic.Int64
	maxQueue    atomic.Int64
	widthHist   [8]atomic.Uint64 // len(widthBounds)+1

	latCount atomic.Uint64
	latSum   atomic.Int64      // nanoseconds
	latHist  [17]atomic.Uint64 // len(latencyBounds)+1
}

func (m *metrics) observeLatency(d time.Duration) {
	m.latCount.Add(1)
	m.latSum.Add(int64(d))
	for i, ub := range latencyBounds {
		if d <= ub {
			m.latHist[i].Add(1)
			return
		}
	}
	m.latHist[len(latencyBounds)].Add(1)
}

func (m *metrics) observeBatch(width, queued int) {
	m.batches.Add(1)
	m.widthSum.Add(uint64(width))
	maxStore(&m.maxWidth, int64(width))
	maxStore(&m.maxQueue, int64(queued))
	for i, ub := range widthBounds {
		if width <= ub {
			m.widthHist[i].Add(1)
			return
		}
	}
	m.widthHist[len(widthBounds)].Add(1)
}

func (m *metrics) observeFallback(r refine.Reason) {
	switch r {
	case refine.ReasonStagnated:
		m.fbStagnated.Add(1)
	case refine.ReasonNonFinite:
		m.fbNonFinite.Add(1)
	default:
		m.fbMaxIter.Add(1)
	}
}

func maxStore(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Bucket is one histogram bucket in a Snapshot: the count of
// observations at or below UpperBound. The final bucket of a histogram
// has UpperBound < 0, meaning +Inf.
type Bucket struct {
	UpperBound int64  `json:"upper_bound"` // latency: ns; width: columns; <0 = +Inf
	Count      uint64 `json:"count"`
}

// LatencySnapshot is the request-latency histogram at snapshot time.
// Latency is measured from admission (the request entering the queue) to
// the reply being handed back — queueing, lingering, and solving
// included.
type LatencySnapshot struct {
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	// Sum is the exact total latency: Mean is Sum/Count truncated, so
	// Mean×Count runs low by up to Count ns and can even fall between
	// two snapshots.
	Sum     time.Duration `json:"sum_ns"`
	Buckets []Bucket      `json:"buckets"`
}

// Quantile estimates the q-quantile from the histogram, returning the
// upper bound of the bucket the quantile falls in — a conservative
// (upward-biased) estimate. q is clamped into [0, 1] (a NaN q reads as
// 0); zero observations or an empty bucket list yield 0. A quantile
// landing in the +Inf bucket reports the last finite bucket bound — the
// histogram cannot say more than "beyond every bound".
func (l LatencySnapshot) Quantile(q float64) time.Duration {
	if l.Count == 0 || len(l.Buckets) == 0 {
		return 0
	}
	if !(q > 0) { // catches q ≤ 0 and NaN
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(l.Count))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	var lastFinite time.Duration
	for _, b := range l.Buckets {
		if b.UpperBound >= 0 {
			lastFinite = time.Duration(b.UpperBound)
		}
		cum += b.Count
		if cum >= rank {
			if b.UpperBound < 0 {
				return lastFinite // +Inf bucket
			}
			return time.Duration(b.UpperBound)
		}
	}
	// rank exceeds the recorded observations (Count larger than the
	// bucket sum — a torn snapshot): report the largest finite bound
	// rather than indexing past the slice.
	return lastFinite
}

// Snapshot is a point-in-time copy of the server's instrumentation.
//
// Request accounting (each accepted request ends in exactly one of the
// outcome counters):
//   - PathNative: answered by the warm native engine — a coalesced batch
//     sweep or the native rung of a post-split single.
//   - PathSequentialRefine: answered by the sequential+refine fallback
//     rung after the native rung failed.
//   - PathMixedRefine: a mixed-precision server's f32 sweep answered
//     after one or more refinement iterations recovered the float64
//     tolerance (healthy operation, not degradation).
//   - PathFloat64Fallback: refinement on the f32 plane stagnated and the
//     precision guard's lazily built float64 factor answered.
//   - Cancelled: the requester's context ended first.
//   - Failed: the degradation ladder was exhausted, or the server closed
//     with the request still queued.
//
// RejectedOverload and RejectedInvalid count requests refused at
// admission (they are not part of Accepted).
type Snapshot struct {
	Accepted             uint64 `json:"accepted"`
	RejectedOverload     uint64 `json:"rejected_overload"`
	RejectedInvalid      uint64 `json:"rejected_invalid"`
	Cancelled            uint64 `json:"cancelled"`
	Failed               uint64 `json:"failed"`
	PathNative           uint64 `json:"path_native"`
	PathSequentialRefine uint64 `json:"path_sequential_refine"`
	PathMixedRefine      uint64 `json:"path_mixed_refine"`
	PathFloat64Fallback  uint64 `json:"path_float64_fallback"`

	// Precision is the server's resolved factor storage precision
	// ("float64" or "float32", after PolicyAuto's build-time decision).
	Precision string `json:"precision"`
	// RefineIterations is the cumulative mixed-precision refinement
	// iteration count (each iteration is one more sweep); always 0 on a
	// float64 server.
	RefineIterations uint64 `json:"refine_iterations"`
	// RefineFallbacks counts float64-fallback activations by the
	// refine.Reason that triggered them; empty until one fires.
	RefineFallbacks map[string]uint64 `json:"refine_fallbacks,omitempty"`

	Batches        uint64   `json:"batches"`
	BatchSplits    uint64   `json:"batch_splits"` // batches that failed wholesale and were retried as singles
	MeanBatchWidth float64  `json:"mean_batch_width"`
	MaxBatchWidth  int      `json:"max_batch_width"`
	BatchWidths    []Bucket `json:"batch_widths"`

	QueueDepth    int `json:"queue_depth"`     // gauge: requests waiting right now
	QueueCap      int `json:"queue_cap"`       // admission limit
	MaxQueueDepth int `json:"max_queue_depth"` // high-water mark seen at batch formation
	InFlight      int `json:"in_flight"`       // gauge: admitted requests whose Solve has not returned

	// KernelTasks is the solver's cumulative supernode-execution count per
	// concrete numeric kernel (native.Solver.KernelTotals) — which kernels
	// this server's traffic actually hit. Zero-count kernels are omitted.
	KernelTasks map[string]int64 `json:"kernel_tasks,omitempty"`

	Latency LatencySnapshot `json:"latency"`
}

// Snapshot returns a consistent-enough copy of the server's counters for
// dashboards and load generators: each field is read atomically; the set
// is not a single transaction (the solver is never paused for a read).
func (s *Server) Snapshot() Snapshot {
	m := &s.met
	snap := Snapshot{
		Accepted:             m.accepted.Load(),
		RejectedOverload:     m.rejectedOverload.Load(),
		RejectedInvalid:      m.rejectedInvalid.Load(),
		Cancelled:            m.cancelled.Load(),
		Failed:               m.failed.Load(),
		PathNative:           m.pathNative.Load(),
		PathSequentialRefine: m.pathSeqRefine.Load(),
		PathMixedRefine:      m.pathMixedRefine.Load(),
		PathFloat64Fallback:  m.pathF64Fallback.Load(),
		Precision:            s.precision.String(),
		RefineIterations:     m.refineIters.Load(),
		Batches:              m.batches.Load(),
		BatchSplits:          m.batchSplits.Load(),
		MaxBatchWidth:        int(m.maxWidth.Load()),
		QueueDepth:           len(s.queue),
		QueueCap:             cap(s.queue),
		MaxQueueDepth:        int(m.maxQueue.Load()),
		InFlight:             int(s.inflight.Load()),
		KernelTasks:          s.sv.KernelTotals().Map(),
	}
	if snap.Batches > 0 {
		snap.MeanBatchWidth = float64(m.widthSum.Load()) / float64(snap.Batches)
	}
	fb := map[refine.Reason]uint64{
		refine.ReasonStagnated: m.fbStagnated.Load(),
		refine.ReasonNonFinite: m.fbNonFinite.Load(),
		refine.ReasonMaxIter:   m.fbMaxIter.Load(),
	}
	for reason, v := range fb {
		if v > 0 {
			if snap.RefineFallbacks == nil {
				snap.RefineFallbacks = make(map[string]uint64, len(fb))
			}
			snap.RefineFallbacks[string(reason)] = v
		}
	}
	snap.BatchWidths = make([]Bucket, len(widthBounds)+1)
	for i, ub := range widthBounds {
		snap.BatchWidths[i] = Bucket{UpperBound: int64(ub), Count: m.widthHist[i].Load()}
	}
	snap.BatchWidths[len(widthBounds)] = Bucket{UpperBound: -1, Count: m.widthHist[len(widthBounds)].Load()}
	snap.Latency = m.latency()
	return snap
}

// latency snapshots the request-latency histogram.
func (m *metrics) latency() LatencySnapshot {
	l := LatencySnapshot{Count: m.latCount.Load(), Sum: time.Duration(m.latSum.Load())}
	if l.Count > 0 {
		l.Mean = l.Sum / time.Duration(l.Count)
	}
	l.Buckets = make([]Bucket, len(latencyBounds)+1)
	for i, ub := range latencyBounds {
		l.Buckets[i] = Bucket{UpperBound: int64(ub), Count: m.latHist[i].Load()}
	}
	l.Buckets[len(latencyBounds)] = Bucket{UpperBound: -1, Count: m.latHist[len(latencyBounds)].Load()}
	return l
}
