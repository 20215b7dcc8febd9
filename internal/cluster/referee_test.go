package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// refHandleMetrics is the router's /metrics handler as it stood before
// the shared exposition (internal/httpkit), verbatim but for the receiver
// becoming a parameter. Kept as the referee handleMetrics is held to byte
// for byte.
func refHandleMetrics(rt *Router, w http.ResponseWriter) {
	var sb strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	m := &rt.met
	counter("sptrsv_cluster_solves_total", "Solve requests entering the router.", m.solves.Load())
	counter("sptrsv_cluster_solves_ok_total", "Solve requests answered 200.", m.solveOK.Load())
	counter("sptrsv_cluster_retries_total", "Backend attempts beyond each request's first.", m.retries.Load())
	counter("sptrsv_cluster_failovers_total", "Solves answered by a non-first-choice replica.", m.failovers.Load())
	counter("sptrsv_cluster_exhausted_total", "Requests that ran out of retry budget.", m.exhausted.Load())
	counter("sptrsv_cluster_ingests_total", "Ingest requests entering the router.", m.ingests.Load())
	counter("sptrsv_cluster_ingest_partial_total", "Ingests that reached only part of the replica set.", m.ingestPart.Load())
	counter("sptrsv_cluster_value_updates_total", "Streaming value-update requests entering the router.", m.valueUpds.Load())
	counter("sptrsv_cluster_value_update_partial_total", "Value updates that reached only part of the replica set.", m.valueUpdPrt.Load())
	counter("sptrsv_cluster_hot_promotions_total", "Matrices promoted to the hot replication factor.", m.promotions.Load())
	counter("sptrsv_cluster_hot_demotions_total", "Matrices demoted back to the base replication factor.", m.demotions.Load())
	counter("sptrsv_cluster_repairs_total", "Async re-ingests triggered by a replica answering 404/410.", m.repairs.Load())
	counter("sptrsv_cluster_probe_cycles_total", "Active health-probe sweeps completed.", m.probeCycles.Load())

	fmt.Fprintf(&sb, "# HELP sptrsv_cluster_backend_up Backend usability (1 = up, 0.75 = suspect, 0.5 = half-open, 0 = down).\n# TYPE sptrsv_cluster_backend_up gauge\n")
	stateVal := map[string]float64{"up": 1, "suspect": 0.75, "half-open": 0.5, "down": 0}
	for _, bh := range rt.health.Snapshot() {
		fmt.Fprintf(&sb, "sptrsv_cluster_backend_up{backend=%q} %g\n", bh.Backend, stateVal[bh.State])
	}
	fmt.Fprintf(&sb, "# HELP sptrsv_cluster_matrix_replicas Current replica count per routed matrix.\n# TYPE sptrsv_cluster_matrix_replicas gauge\n")
	for _, rs := range rt.Routes() {
		fmt.Fprintf(&sb, "sptrsv_cluster_matrix_replicas{matrix=%q} %d\n", rs.ID, len(rs.Replicas))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, sb.String())
}

// bareRouter is a Router holding only what handleMetrics reads: the
// counters, a health tracker on a fake clock, and a routing table.
func bareRouter(backends []string, now *time.Time) *Router {
	return &Router{
		health:   NewHealth(backends, HealthConfig{DownCooldown: time.Second, now: func() time.Time { return *now }}),
		matrices: make(map[string]*matrixState),
	}
}

// TestRouterMetricsMatchReferee renders each router state with
// handleMetrics and with the referee. The pages must be byte-identical,
// except for ids with a tab or a byte that is not UTF-8, which the
// referee Go-quotes and the shared writer escapes as the text format
// defines.
func TestRouterMetricsMatchReferee(t *testing.T) {
	for _, tc := range []struct {
		name   string
		setup  func(rt *Router, now *time.Time)
		ids    []string
		differ bool
	}{
		{name: "empty router"},
		{name: "a backend in each health state", setup: func(rt *Router, now *time.Time) {
			rt.health.ReportFailure("http://b-suspect", false)
			rt.health.ReportFailure("http://c-down", true)
			rt.health.ReportFailure("http://c-down", true)
			rt.health.ReportFailure("http://d-half-open", true)
			rt.health.ReportFailure("http://d-half-open", true)
			*now = now.Add(2 * time.Second)
			rt.health.ReportFailure("http://c-down", false) // restarts c's cooldown only
		}},
		{name: "counters of a million and more", setup: func(rt *Router, _ *time.Time) {
			m := &rt.met
			for i, c := range []interface{ Store(uint64) }{
				&m.solves, &m.solveOK, &m.retries, &m.failovers, &m.exhausted, &m.ingests, &m.ingestPart,
				&m.valueUpds, &m.valueUpdPrt, &m.promotions, &m.demotions, &m.repairs, &m.probeCycles,
			} {
				c.Store(uint64(i+1) * 1_000_000)
			}
		}},
		{name: "ids with quote, backslash, newline and non-ASCII",
			ids: []string{`q"uote`, `back\slash`, "new\nline", "matrice-ü-矩阵"}},
		{name: "bug fix: tab and invalid UTF-8 in ids", ids: []string{"a\tb", "x\xffy"}, differ: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(1000, 0)
			rt := bareRouter([]string{"http://a-up", "http://b-suspect", "http://c-down", "http://d-half-open"}, &now)
			for i, id := range tc.ids {
				rt.matrices[id] = &matrixState{id: id, replicas: []string{"http://a-up", "http://b-suspect", "http://c-down"}[:1+i%3]}
			}
			if tc.setup != nil {
				tc.setup(rt, &now)
			}
			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			rt.handleMetrics(got, nil)
			refHandleMetrics(rt, want)
			if same := got.Body.String() == want.Body.String(); same == tc.differ {
				t.Fatalf("pages identical: %v, want %v\n--- handleMetrics\n%s--- referee\n%s", same, !tc.differ, got.Body, want.Body)
			}
			if got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
				t.Fatalf("Content-Type %q, referee %q", got.Header().Get("Content-Type"), want.Header().Get("Content-Type"))
			}
		})
	}
}
