package transport

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sort"

	"sptrsv/internal/httpkit"
	"sptrsv/internal/registry"
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
	writeMetrics(w, s.reg.Stats(), s.reg.Resident())
}

// writeMetrics renders the page for one registry's gauges and its
// resident matrices' serve snapshots.
func writeMetrics(w http.ResponseWriter, st registry.Stats, res []registry.ResidentSnapshot) {
	var p httpkit.Page
	httpkit.Single(&p, "sptrsv_registry_resident_matrices", "gauge", "Matrices currently resident.", float64(st.Resident))
	httpkit.Single(&p, "sptrsv_registry_building_matrices", "gauge", "Matrices with a background build in flight.", float64(st.Building))
	httpkit.Single(&p, "sptrsv_registry_draining_matrices", "gauge", "Evicted matrices still finishing in-flight solves.", float64(st.Draining))
	// Resident bytes are labeled by each matrix's resolved storage
	// precision, so the mixed-precision budget win is visible directly;
	// summing the series recovers the old unlabeled total.
	p.Family("sptrsv_registry_resident_bytes", "gauge", "Resident footprint (factor nonzeros + solver arenas) by factor storage precision.")
	for _, prec := range slices.Sorted(maps.Keys(st.ResidentBytesByPrecision)) {
		httpkit.Sample(&p, "sptrsv_registry_resident_bytes", st.ResidentBytesByPrecision[prec], "precision", prec)
	}
	httpkit.Single(&p, "sptrsv_registry_resident_bytes_budget", "gauge", "Configured resident-bytes budget (0 = unlimited).", float64(st.MaxResidentBytes))
	httpkit.Single(&p, "sptrsv_registry_evictions_total", "counter", "Matrices evicted to fit the resident-bytes budget or by request.", float64(st.Evictions))
	httpkit.Single(&p, "sptrsv_registry_build_failures_total", "counter", "Background factorization builds that failed.", float64(st.BuildFailures))
	httpkit.Single(&p, "sptrsv_refactorize_total", "counter", "Streaming value updates applied via the refactorization fast path.", float64(st.Refactorizations))
	httpkit.Single(&p, "sptrsv_refactorize_swap_latency_seconds", "gauge", "Smoothed update-to-swap latency of value updates (EWMA).", float64(st.RefactorEwmaMillis)/1e3)
	p.Family("sptrsv_native_vector_isa", "gauge", "Vector instruction set of the multi-RHS sweep row primitives (info gauge, value 1).")
	httpkit.Sample(&p, "sptrsv_native_vector_isa", 1, "isa", rowops.VectorISA())

	// The serve families carry a matrix label, so each family's header is
	// written once, ahead of every matrix's samples.
	for _, f := range serveFamilies {
		p.Family(f.name, f.typ, f.help)
	}
	sort.Slice(res, func(i, j int) bool { return res[i].ID < res[j].ID })
	for _, rs := range res {
		writeServeSnapshot(&p, rs.ID, rs.Serve)
	}
	p.Serve(w)
}

// serveFamilies are the per-matrix serve metric families in page order;
// get is nil for the families writeServeSnapshot renders by hand.
var serveFamilies = []struct {
	name, typ, help string
	get             func(serve.Snapshot) uint64
}{
	{"sptrsv_serve_accepted_total", "counter", "Requests admitted to the solve queue.", func(s serve.Snapshot) uint64 { return s.Accepted }},
	{"sptrsv_serve_rejected_overload_total", "counter", "Requests shed at admission (queue full).", func(s serve.Snapshot) uint64 { return s.RejectedOverload }},
	{"sptrsv_serve_rejected_invalid_total", "counter", "Requests rejected for a bad shape.", func(s serve.Snapshot) uint64 { return s.RejectedInvalid }},
	{"sptrsv_serve_cancelled_total", "counter", "Requests whose context ended first.", func(s serve.Snapshot) uint64 { return s.Cancelled }},
	{"sptrsv_serve_failed_total", "counter", "Requests that exhausted the degradation ladder.", func(s serve.Snapshot) uint64 { return s.Failed }},
	{"sptrsv_serve_path_native_total", "counter", "Requests answered by the warm native engine.", func(s serve.Snapshot) uint64 { return s.PathNative }},
	{"sptrsv_serve_path_sequential_refine_total", "counter", "Requests answered by the sequential+refine fallback.", func(s serve.Snapshot) uint64 { return s.PathSequentialRefine }},
	{"sptrsv_serve_path_mixed_refine_total", "counter", "Requests answered by the float32 sweep after refinement iterations.", func(s serve.Snapshot) uint64 { return s.PathMixedRefine }},
	{"sptrsv_serve_path_float64_fallback_total", "counter", "Requests answered by the precision guard's float64 fallback.", func(s serve.Snapshot) uint64 { return s.PathFloat64Fallback }},
	{"sptrsv_refine_iterations_total", "counter", "Mixed-precision refinement iterations (each one extra sweep).", func(s serve.Snapshot) uint64 { return s.RefineIterations }},
	{"sptrsv_serve_batches_total", "counter", "Coalesced sweeps executed.", func(s serve.Snapshot) uint64 { return s.Batches }},
	{"sptrsv_serve_batch_splits_total", "counter", "Batches that failed wholesale and were retried as singles.", func(s serve.Snapshot) uint64 { return s.BatchSplits }},
	{"sptrsv_serve_queue_depth", "gauge", "Requests waiting for batch formation.", nil},
	{"sptrsv_serve_in_flight", "gauge", "Admitted requests whose Solve has not returned.", nil},
	{"sptrsv_serve_latency_seconds", "histogram", "Request latency from admission to reply.", nil},
	{"sptrsv_kernel_tasks_total", "counter", "Supernode tasks executed per numeric kernel.", nil},
	{"sptrsv_refine_fallback_total", "counter", "Float64-fallback activations by the refinement stop reason.", nil},
	{"sptrsv_serve_precision", "gauge", "Resolved factor storage precision of the matrix's server (info gauge, value 1).", nil},
}

// writeServeSnapshot emits one matrix's serve samples with a matrix="id"
// label.
func writeServeSnapshot(p *httpkit.Page, id string, snap serve.Snapshot) {
	for _, f := range serveFamilies {
		if f.get != nil {
			httpkit.Sample(p, f.name, f.get(snap), "matrix", id)
		}
	}
	httpkit.Sample(p, "sptrsv_serve_queue_depth", snap.QueueDepth, "matrix", id)
	httpkit.Sample(p, "sptrsv_serve_in_flight", snap.InFlight, "matrix", id)
	for _, k := range slices.Sorted(maps.Keys(snap.KernelTasks)) {
		httpkit.Sample(p, "sptrsv_kernel_tasks_total", snap.KernelTasks[k], "matrix", id, "kernel", k)
	}
	for _, rn := range slices.Sorted(maps.Keys(snap.RefineFallbacks)) {
		httpkit.Sample(p, "sptrsv_refine_fallback_total", snap.RefineFallbacks[rn], "matrix", id, "reason", rn)
	}
	httpkit.Sample(p, "sptrsv_serve_precision", 1, "matrix", id, "precision", snap.Precision)
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
		httpkit.Sample(p, "sptrsv_serve_latency_seconds_bucket", cum, "matrix", id, "le", le)
	}
	httpkit.Sample(p, "sptrsv_serve_latency_seconds_sum", snap.Latency.Sum.Seconds(), "matrix", id)
	httpkit.Sample(p, "sptrsv_serve_latency_seconds_count", snap.Latency.Count, "matrix", id)
}
