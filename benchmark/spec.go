package main

import (
	"fmt"
	"time"

	"sptrsv/internal/mesh"
)

// workloadSpec is one row of the workload table in README.md. The full
// sizes are the comparable ones; the short sizes exist only so the smoke
// test can cross every layer in milliseconds.
type workloadSpec struct {
	Name string
	Why  string
	// Engine workloads call native.Solver.SolveInto directly; the others
	// go through the HTTP stack.
	Engine bool
	// Grid is the 2-D grid side (GRID2D-side×side); Cube the 3-D side.
	// Exactly one is set, per size class.
	Grid, Cube           int
	ShortGrid, ShortCube int
	NRHS                 int // columns per solve call
	Clients              int // closed-loop callers
	Backends             int // 0 engine, 1 daemon, 2 behind a cluster.Router
	UpdatesPerSec        int // open-loop writer rate, 0 = no writer
}

var workloads = []workloadSpec{
	{
		Name:   "engine-grid-1rhs",
		Why:    "NRHS=1 on a 2-D grid: flat1 kernel, time dominated by scheduling (barriers, levels, task grain); serve/transport/cluster idle",
		Engine: true, Grid: 255, ShortGrid: 31, NRHS: 1, Clients: 1,
	},
	{
		Name:   "engine-cube-30rhs",
		Why:    "NRHS=30 on a 3-D cube: time in the multi-RHS kernels (generic above the wideRHS cutover, tiledtall), little in scheduling",
		Engine: true, Cube: 25, ShortCube: 7, NRHS: 30, Clients: 1,
	},
	{
		Name: "daemon-solve",
		Why:  "8 clients over loopback HTTP to one daemon, tiny sweep: codec, HTTP envelope, registry, admission, linger, gather, residual and scatter are most of the request",
		Grid: 63, ShortGrid: 15, NRHS: 1, Clients: 8, Backends: 1,
	},
	{
		Name: "cluster-update",
		Why:  "4 readers through a router over 2 replicas while a writer streams value updates at 4/s: refactorize, hot-swap and generation drain under traffic, plus fan-out and proxy hop",
		Grid: 127, ShortGrid: 21, NRHS: 1, Clients: 4, Backends: 2, UpdatesPerSec: 4,
	},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// problem returns the mesh problem of a workload together with the JSON
// ingest spec that makes a daemon build the same system. The names match
// registry.Grid2DSource / CubeSource so both sides describe one matrix.
func (w workloadSpec) problem(short bool) (mesh.Problem, string) {
	g, c := w.Grid, w.Cube
	if short {
		g, c = w.ShortGrid, w.ShortCube
	}
	if c > 0 {
		return mesh.Problem{
			Name: fmt.Sprintf("CUBE-%d", c), PaperRef: "benchmark",
			A: mesh.Grid3D(c, c, c), Geom: mesh.Grid3DGeometry(c, c, c),
		}, fmt.Sprintf(`{"cube":%d}`, c)
	}
	return mesh.Problem{
		Name: fmt.Sprintf("GRID2D-%dx%d", g, g), PaperRef: "benchmark",
		A: mesh.Grid2D(g, g), Geom: mesh.Grid2DGeometry(g, g),
	}, fmt.Sprintf(`{"grid2d":"%dx%d"}`, g, g)
}

// Run-shape constants. The issue asked for 30 s windows after a 3 s
// warm-up; the driver's cap on total run time (see README "Run length")
// leaves room for 20 s + 2 s, which is what BENCHMARK.json fixes.
const (
	defaultSeconds = 20
	warmupFull     = 2 * time.Second
	warmupShort    = 100 * time.Millisecond
	minSetups      = 3               // setup_s is the median of at least this many cold set-ups,
	maxSetups      = 15              // at most this many,
	setupBudget    = 3 * time.Second // and of as many as fit in this
	rhsPerClient   = 8               // pre-generated right-hand sides per client, cycled
	residualEvery  = 16              // 1-in-N answers get their residual re-checked
	oracleTol      = 1e-10
	opTimeout      = 30 * time.Second // an operation slower than this has failed
)

// metricDef is one row of the metric catalogue. The catalogue is the
// single place names and units live; BENCHMARK.json repeats it for the
// driver and the smoke test checks the two agree.
type metricDef struct {
	Name, Unit string
	Better     string  // "lower" | "higher"
	Bound      float64 // end-to-end only: share of the median it may worsen
	// Driver marks the end-to-end metrics every workload reports, which
	// are the ones BENCHMARK.json lists under end_to_end. The other two
	// end-to-end metrics of the issue are reported in the document and by
	// -aa, but reach the driver differently: fail_ratio as the result
	// line's failed/attempted (it is 0 on a healthy run, and the driver's
	// bounds are relative), update_to_solve_p50_ms as a per-layer metric
	// (only cluster-update exercises it).
	Driver bool
}

// The timing bounds are the widest the driver allows, not the ±10 % the
// issue hoped for: on this shared 2-vCPU host identical runs a few
// minutes apart differ by up to 14 % (interquartile range over median,
// engine-grid-1rhs; README "Noise floor"), and a bound the noise crosses
// gates nothing.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "solve_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "solves_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Driver: true},
	{Name: "resident_mb", Unit: "MB", Better: "lower", Bound: 0.01, Driver: true},
	{Name: "update_to_solve_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0},
}

var perLayer = []metricDef{
	// set-up stages → setup_s
	{Name: "order.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "chol.factorize_ms", Unit: "ms", Better: "lower"},
	{Name: "native.newsolver_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.build_ms", Unit: "ms", Better: "lower"},
	// sweep engine → solve_p50_ms, solves_per_s on engine-*
	{Name: "native.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "native.backward_ms", Unit: "ms", Better: "lower"},
	{Name: "native.tasks", Unit: "count", Better: "lower"},
	{Name: "native.levels", Unit: "count", Better: "lower"},
	{Name: "native.kernel_tasks.flat1", Unit: "count", Better: "higher"},
	{Name: "native.kernel_tasks.generic", Unit: "count", Better: "higher"},
	{Name: "native.kernel_tasks.tiled", Unit: "count", Better: "higher"},
	{Name: "native.kernel_tasks.tiledtall", Unit: "count", Better: "higher"},
	{Name: "native.speedup_vs_1worker", Unit: "ratio", Better: "higher"},
	{Name: "native.gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "native.bytes_per_solve_computed", Unit: "B", Better: "lower"},
	{Name: "native.sweep_gbps_computed", Unit: "GB/s", Better: "higher"},
	{Name: "native.triad_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "native.pct_of_triad", Unit: "%", Better: "higher"},
	{Name: "native.allocs_per_solve", Unit: "count", Better: "lower"},
	{Name: "native.f32_sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "native.f32_over_f64", Unit: "ratio", Better: "higher"},
	{Name: "native.batch_sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.residual_ms", Unit: "ms", Better: "lower"},
	// coalescing server
	{Name: "serve.solve_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.solves_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.mean_batch_width", Unit: "count", Better: "higher"},
	{Name: "serve.batches", Unit: "count", Better: "lower"},
	{Name: "serve.batch_splits", Unit: "count", Better: "lower"},
	{Name: "serve.max_queue_depth", Unit: "count", Better: "lower"},
	{Name: "serve.rejected_overload", Unit: "count", Better: "lower"},
	{Name: "serve.path_native_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.server_p50_ms", Unit: "ms", Better: "lower"},
	// registry and the value-update path
	{Name: "registry.self_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.update_values_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.refactorizations", Unit: "count", Better: "lower"},
	{Name: "chol.refactorize_ms", Unit: "ms", Better: "lower"},
	// HTTP front end
	{Name: "transport.handler_self_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.http_self_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.codec_encode_us", Unit: "us", Better: "lower"},
	{Name: "transport.codec_decode_us", Unit: "us", Better: "lower"},
	{Name: "transport.bytes_per_request", Unit: "B", Better: "lower"},
	// router
	{Name: "cluster.router_self_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.value_fanout_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.client_retries", Unit: "count", Better: "lower"},
	{Name: "cluster.partial_updates", Unit: "count", Better: "lower"},
	{Name: "cluster.updates_sent", Unit: "count", Better: "higher"},
	// load generator health and noise floor; reported, never gated
	{Name: "client.p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.conns_opened", Unit: "count", Better: "lower"},
	{Name: "client.window_spread_pct", Unit: "%", Better: "lower"},
	{Name: "client.writer_late_ms", Unit: "ms", Better: "lower"},
	// process
	{Name: "proc.cpu_util", Unit: "ratio", Better: "lower"},
	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.allocs_per_request", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.peel_accounted_pct", Unit: "%", Better: "higher"},
	// the two end-to-end metrics the driver receives as per-layer rows
	{Name: "update_to_solve_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue")
}
