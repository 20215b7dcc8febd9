package transport

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"sptrsv/internal/rowops"
	"sptrsv/internal/serve"
)

// This file renders GET /metrics in Prometheus text exposition format:
// the registry gauges (resident matrices and bytes, evictions, build
// failures) and, per resident matrix, the full serve.Snapshot — request
// outcome counters, batch-shape statistics, and the request-latency
// histogram in seconds with cumulative le buckets, so a standard
// scraper can compute quantiles server-side.

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var sb strings.Builder
	st := s.reg.Stats()
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	gauge("sptrsv_registry_resident_matrices", "Matrices currently resident.", float64(st.Resident))
	gauge("sptrsv_registry_building_matrices", "Matrices with a background build in flight.", float64(st.Building))
	gauge("sptrsv_registry_draining_matrices", "Evicted matrices still finishing in-flight solves.", float64(st.Draining))
	// Resident bytes are labeled by each matrix's resolved storage
	// precision, so the mixed-precision budget win is visible directly;
	// summing the series recovers the old unlabeled total.
	fmt.Fprintf(&sb, "# HELP sptrsv_registry_resident_bytes Resident footprint (factor nonzeros + solver arenas) by factor storage precision.\n# TYPE sptrsv_registry_resident_bytes gauge\n")
	precs := make([]string, 0, len(st.ResidentBytesByPrecision))
	for p := range st.ResidentBytesByPrecision {
		precs = append(precs, p)
	}
	sort.Strings(precs)
	for _, p := range precs {
		fmt.Fprintf(&sb, "sptrsv_registry_resident_bytes{precision=%q} %d\n", p, st.ResidentBytesByPrecision[p])
	}
	gauge("sptrsv_registry_resident_bytes_budget", "Configured resident-bytes budget (0 = unlimited).", float64(st.MaxResidentBytes))
	counter("sptrsv_registry_evictions_total", "Matrices evicted to fit the resident-bytes budget or by request.", float64(st.Evictions))
	counter("sptrsv_registry_build_failures_total", "Background factorization builds that failed.", float64(st.BuildFailures))
	counter("sptrsv_refactorize_total", "Streaming value updates applied via the refactorization fast path.", float64(st.Refactorizations))
	gauge("sptrsv_refactorize_swap_latency_seconds", "Smoothed update-to-swap latency of value updates (EWMA).", float64(st.RefactorEwmaMillis)/1e3)
	fmt.Fprintf(&sb, "# HELP sptrsv_native_vector_isa Vector instruction set of the multi-RHS sweep row primitives (info gauge, value 1).\n# TYPE sptrsv_native_vector_isa gauge\nsptrsv_native_vector_isa{isa=%q} 1\n", rowops.VectorISA())

	res := s.reg.Resident()
	sort.Slice(res, func(i, j int) bool { return res[i].ID < res[j].ID })
	writeServeHeader(&sb)
	for _, rs := range res {
		writeServeSnapshot(&sb, rs.ID, rs.Serve)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(sb.String()))
}

// serveCounters maps the Snapshot outcome counters onto metric names;
// the extraction closures keep writeServeSnapshot to one loop.
var serveCounters = []struct {
	name, help string
	get        func(serve.Snapshot) uint64
}{
	{"sptrsv_serve_accepted_total", "Requests admitted to the solve queue.", func(s serve.Snapshot) uint64 { return s.Accepted }},
	{"sptrsv_serve_rejected_overload_total", "Requests shed at admission (queue full).", func(s serve.Snapshot) uint64 { return s.RejectedOverload }},
	{"sptrsv_serve_rejected_invalid_total", "Requests rejected for a bad shape.", func(s serve.Snapshot) uint64 { return s.RejectedInvalid }},
	{"sptrsv_serve_cancelled_total", "Requests whose context ended first.", func(s serve.Snapshot) uint64 { return s.Cancelled }},
	{"sptrsv_serve_failed_total", "Requests that exhausted the degradation ladder.", func(s serve.Snapshot) uint64 { return s.Failed }},
	{"sptrsv_serve_path_native_total", "Requests answered by the warm native engine.", func(s serve.Snapshot) uint64 { return s.PathNative }},
	{"sptrsv_serve_path_sequential_refine_total", "Requests answered by the sequential+refine fallback.", func(s serve.Snapshot) uint64 { return s.PathSequentialRefine }},
	{"sptrsv_serve_path_mixed_refine_total", "Requests answered by the float32 sweep after refinement iterations.", func(s serve.Snapshot) uint64 { return s.PathMixedRefine }},
	{"sptrsv_serve_path_float64_fallback_total", "Requests answered by the precision guard's float64 fallback.", func(s serve.Snapshot) uint64 { return s.PathFloat64Fallback }},
	{"sptrsv_refine_iterations_total", "Mixed-precision refinement iterations (each one extra sweep).", func(s serve.Snapshot) uint64 { return s.RefineIterations }},
	{"sptrsv_serve_batches_total", "Coalesced sweeps executed.", func(s serve.Snapshot) uint64 { return s.Batches }},
	{"sptrsv_serve_batch_splits_total", "Batches that failed wholesale and were retried as singles.", func(s serve.Snapshot) uint64 { return s.BatchSplits }},
}

// writeServeHeader emits one HELP/TYPE pair per serve metric family
// (they carry a matrix label, so the header is written once, not per
// matrix).
func writeServeHeader(sb *strings.Builder) {
	for _, c := range serveCounters {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
	}
	fmt.Fprintf(sb, "# HELP sptrsv_serve_queue_depth Requests waiting for batch formation.\n# TYPE sptrsv_serve_queue_depth gauge\n")
	fmt.Fprintf(sb, "# HELP sptrsv_serve_in_flight Admitted requests whose Solve has not returned.\n# TYPE sptrsv_serve_in_flight gauge\n")
	fmt.Fprintf(sb, "# HELP sptrsv_serve_latency_seconds Request latency from admission to reply.\n# TYPE sptrsv_serve_latency_seconds histogram\n")
	fmt.Fprintf(sb, "# HELP sptrsv_kernel_tasks_total Supernode tasks executed per numeric kernel.\n# TYPE sptrsv_kernel_tasks_total counter\n")
	fmt.Fprintf(sb, "# HELP sptrsv_refine_fallback_total Float64-fallback activations by the refinement stop reason.\n# TYPE sptrsv_refine_fallback_total counter\n")
	fmt.Fprintf(sb, "# HELP sptrsv_serve_precision Resolved factor storage precision of the matrix's server (info gauge, value 1).\n# TYPE sptrsv_serve_precision gauge\n")
}

// writeServeSnapshot emits one matrix's serve metrics with a
// matrix="id" label.
func writeServeSnapshot(sb *strings.Builder, id string, snap serve.Snapshot) {
	lbl := fmt.Sprintf("{matrix=%q}", id)
	for _, c := range serveCounters {
		fmt.Fprintf(sb, "%s%s %d\n", c.name, lbl, c.get(snap))
	}
	fmt.Fprintf(sb, "sptrsv_serve_queue_depth%s %d\n", lbl, snap.QueueDepth)
	fmt.Fprintf(sb, "sptrsv_serve_in_flight%s %d\n", lbl, snap.InFlight)
	// Per-kernel task counters, sorted for a deterministic exposition.
	kernels := make([]string, 0, len(snap.KernelTasks))
	for k := range snap.KernelTasks {
		kernels = append(kernels, k)
	}
	sort.Strings(kernels)
	for _, k := range kernels {
		fmt.Fprintf(sb, "sptrsv_kernel_tasks_total{matrix=%q,kernel=%q} %d\n", id, k, snap.KernelTasks[k])
	}
	reasons := make([]string, 0, len(snap.RefineFallbacks))
	for rn := range snap.RefineFallbacks {
		reasons = append(reasons, rn)
	}
	sort.Strings(reasons)
	for _, rn := range reasons {
		fmt.Fprintf(sb, "sptrsv_refine_fallback_total{matrix=%q,reason=%q} %d\n", id, rn, snap.RefineFallbacks[rn])
	}
	fmt.Fprintf(sb, "sptrsv_serve_precision{matrix=%q,precision=%q} 1\n", id, snap.Precision)
	// Latency histogram: serve buckets are per-bucket counts with
	// nanosecond bounds; Prometheus wants cumulative counts with
	// seconds bounds and a trailing +Inf.
	var cum uint64
	for _, b := range snap.Latency.Buckets {
		cum += b.Count
		le := "+Inf"
		if b.UpperBound >= 0 {
			le = fmt.Sprintf("%g", float64(b.UpperBound)/1e9)
		}
		fmt.Fprintf(sb, "sptrsv_serve_latency_seconds_bucket{matrix=%q,le=%q} %d\n", id, le, cum)
	}
	fmt.Fprintf(sb, "sptrsv_serve_latency_seconds_sum{matrix=%q} %g\n",
		id, float64(snap.Latency.Mean.Nanoseconds())/1e9*float64(snap.Latency.Count))
	fmt.Fprintf(sb, "sptrsv_serve_latency_seconds_count{matrix=%q} %d\n", id, snap.Latency.Count)
}
