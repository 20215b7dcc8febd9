package transport

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"sptrsv/internal/registry"
	"sptrsv/internal/rowops"
	"sptrsv/internal/serve"
)

// refWriteMetrics and its helpers are the daemon's /metrics writer as it
// stood before the shared exposition (internal/httpkit): the handler body
// with its registry reads lifted into parameters, otherwise verbatim. Kept
// as the referee writeMetrics is held to byte for byte.
func refWriteMetrics(w http.ResponseWriter, st registry.Stats, res []registry.ResidentSnapshot) {
	var sb strings.Builder
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

	sort.Slice(res, func(i, j int) bool { return res[i].ID < res[j].ID })
	refWriteServeHeader(&sb)
	for _, rs := range res {
		refWriteServeSnapshot(&sb, rs.ID, rs.Serve)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(sb.String()))
}

// refServeCounters maps the Snapshot outcome counters onto metric names;
// the extraction closures keep refWriteServeSnapshot to one loop.
var refServeCounters = []struct {
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

// refWriteServeHeader emits one HELP/TYPE pair per serve metric family
// (they carry a matrix label, so the header is written once, not per
// matrix).
func refWriteServeHeader(sb *strings.Builder) {
	for _, c := range refServeCounters {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
	}
	fmt.Fprintf(sb, "# HELP sptrsv_serve_queue_depth Requests waiting for batch formation.\n# TYPE sptrsv_serve_queue_depth gauge\n")
	fmt.Fprintf(sb, "# HELP sptrsv_serve_in_flight Admitted requests whose Solve has not returned.\n# TYPE sptrsv_serve_in_flight gauge\n")
	fmt.Fprintf(sb, "# HELP sptrsv_serve_latency_seconds Request latency from admission to reply.\n# TYPE sptrsv_serve_latency_seconds histogram\n")
	fmt.Fprintf(sb, "# HELP sptrsv_kernel_tasks_total Supernode tasks executed per numeric kernel.\n# TYPE sptrsv_kernel_tasks_total counter\n")
	fmt.Fprintf(sb, "# HELP sptrsv_refine_fallback_total Float64-fallback activations by the refinement stop reason.\n# TYPE sptrsv_refine_fallback_total counter\n")
	fmt.Fprintf(sb, "# HELP sptrsv_serve_precision Resolved factor storage precision of the matrix's server (info gauge, value 1).\n# TYPE sptrsv_serve_precision gauge\n")
}

// refWriteServeSnapshot emits one matrix's serve metrics with a
// matrix="id" label.
func refWriteServeSnapshot(sb *strings.Builder, id string, snap serve.Snapshot) {
	lbl := fmt.Sprintf("{matrix=%q}", id)
	for _, c := range refServeCounters {
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

// TestMetricsMatchReferee renders each input with writeMetrics and with
// the referee. The pages must be byte-identical, except where the
// referee has a defect: a label value with a tab or a byte that is not
// UTF-8 (Go-quoted by the referee, escaped as the text format defines
// here), and the latency _sum (the truncated mean times the count there,
// the exact sum here).
func TestMetricsMatchReferee(t *testing.T) {
	lat := func(count uint64, mean, sum time.Duration, buckets ...serve.Bucket) serve.LatencySnapshot {
		return serve.LatencySnapshot{Count: count, Mean: mean, Sum: sum, Buckets: buckets}
	}
	snap := func(prec string, lat serve.LatencySnapshot) serve.Snapshot {
		return serve.Snapshot{Accepted: 7, PathNative: 6, Failed: 1, Batches: 3, QueueDepth: 2, InFlight: 1, Precision: prec, Latency: lat}
	}
	small := lat(4, 250*time.Microsecond, time.Millisecond,
		serve.Bucket{UpperBound: int64(100 * time.Microsecond), Count: 1},
		serve.Bucket{UpperBound: int64(time.Millisecond), Count: 3},
		serve.Bucket{UpperBound: -1})
	big := serve.Snapshot{
		Accepted: 3_000_000, RejectedOverload: 1_000_000, RejectedInvalid: 12_345_678, Cancelled: 1 << 40,
		Failed: 999_999, PathNative: 2_500_000, PathSequentialRefine: 1_000_001, PathMixedRefine: 4_000_000,
		PathFloat64Fallback: 5_000_000, RefineIterations: 77_000_000, Batches: 1_500_000, BatchSplits: 2_000_000,
		QueueDepth: 1_048_576, InFlight: 3_000_000, Precision: "float32",
		KernelTasks:     map[string]int64{"flat1": 9_000_000, "generic": 1_000_000, "tiledtall": 3},
		RefineFallbacks: map[string]uint64{"stagnated": 2_000_000, "non_finite": 1},
		Latency: lat(1<<21, 3*time.Millisecond, (1<<21)*3*time.Millisecond,
			serve.Bucket{UpperBound: int64(50 * time.Microsecond), Count: 1 << 20},
			serve.Bucket{UpperBound: int64(25 * time.Millisecond), Count: 1 << 20},
			serve.Bucket{UpperBound: -1}),
	}
	for _, tc := range []struct {
		name   string
		st     registry.Stats
		res    []registry.ResidentSnapshot
		differ bool
	}{
		{name: "empty registry"},
		{name: "ids with quote, backslash, newline and non-ASCII", st: registry.Stats{Resident: 4},
			res: []registry.ResidentSnapshot{
				{ID: `q"uote`, Serve: snap("float64", small)},
				{ID: `back\slash`, Serve: snap("float64", small)},
				{ID: "new\nline", Serve: snap("float64", small)},
				{ID: "matrice-ü-矩阵", Serve: snap("float64", small)},
			}},
		{name: "counters of a million and more", st: registry.Stats{
			Resident: 1_000_000, Building: 2_000_000, Draining: 3, ResidentBytes: 5_000_000_000,
			ResidentBytesByPrecision: map[string]int64{"float64": 4_000_000_000, "float32": 1_000_000_000},
			MaxResidentBytes:         8_000_000_000, Evictions: 1_234_567, BuildFailures: 10_000_000,
			Refactorizations: 1_000_000, RefactorEwmaMillis: 1_500_000},
			res: []registry.ResidentSnapshot{{ID: "big", Serve: big}}},
		{name: "empty and non-empty kernel and fallback maps", st: registry.Stats{Resident: 2},
			res: []registry.ResidentSnapshot{
				{ID: "z-empty-maps", Serve: snap("float64", small)},
				{ID: "a-full-maps", Serve: serve.Snapshot{Precision: "float32", Latency: small,
					KernelTasks:     map[string]int64{"generic": 5, "flat1": 12},
					RefineFallbacks: map[string]uint64{"max_iter": 2, "stagnated": 1}}},
			}},
		{name: "histogram with only the +Inf bucket", st: registry.Stats{Resident: 1},
			res: []registry.ResidentSnapshot{{ID: "inf", Serve: snap("float64",
				lat(2, 5*time.Second, 10*time.Second, serve.Bucket{UpperBound: -1, Count: 2}))}}},
		{name: "both precisions", st: registry.Stats{Resident: 2,
			ResidentBytesByPrecision: map[string]int64{"float32": 4096, "float64": 8192}},
			res: []registry.ResidentSnapshot{
				{ID: "f32", Serve: snap("float32", small)},
				{ID: "f64", Serve: snap("float64", small)},
			}},
		{name: "bug fix: tab and invalid UTF-8 in ids", differ: true, st: registry.Stats{Resident: 2},
			res: []registry.ResidentSnapshot{
				{ID: "a\tb", Serve: snap("float64", small)},
				{ID: "x\xffy", Serve: snap("float64", small)},
			}},
		{name: "bug fix: exact latency sum", differ: true, st: registry.Stats{Resident: 1},
			res: []registry.ResidentSnapshot{{ID: "ns", Serve: snap("float64",
				lat(3, 1, 4, serve.Bucket{UpperBound: int64(50 * time.Microsecond), Count: 3}, serve.Bucket{UpperBound: -1}))}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			writeMetrics(got, tc.st, append([]registry.ResidentSnapshot(nil), tc.res...))
			refWriteMetrics(want, tc.st, append([]registry.ResidentSnapshot(nil), tc.res...))
			if same := got.Body.String() == want.Body.String(); same == tc.differ {
				t.Fatalf("pages identical: %v, want %v\n--- writeMetrics\n%s--- referee\n%s", same, !tc.differ, got.Body, want.Body)
			}
			if got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
				t.Fatalf("Content-Type %q, referee %q", got.Header().Get("Content-Type"), want.Header().Get("Content-Type"))
			}
		})
	}
}

// TestMetricsBugFixes pins what the two defects look like on the page.
func TestMetricsBugFixes(t *testing.T) {
	rec := httptest.NewRecorder()
	writeMetrics(rec, registry.Stats{}, []registry.ResidentSnapshot{
		{ID: "a\tb", Serve: serve.Snapshot{Latency: serve.LatencySnapshot{Count: 3, Mean: 1, Sum: 4}}},
		{ID: "x\xffy"},
	})
	page := rec.Body.String()
	for _, want := range []string{
		"sptrsv_serve_accepted_total{matrix=\"a\tb\"} 0\n",
		"sptrsv_serve_accepted_total{matrix=\"x\uFFFDy\"} 0\n",
		"sptrsv_serve_latency_seconds_sum{matrix=\"a\tb\"} 4e-09\n",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page lacks %q:\n%s", want, page)
		}
	}
}
