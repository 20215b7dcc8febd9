package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with everything needed to judge it:
// its unit, how many samples stand behind it, and (for throughputs) the
// five sub-window values it is the median of.
type metric struct {
	Value      float64   `json:"value"`
	Unit       string    `json:"unit"`
	Samples    int       `json:"samples,omitempty"`
	SubWindows []float64 `json:"sub_windows,omitempty"`
}

// result is one workload's section of the output document.
type result struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Problem  string `json:"problem"`
	N        int    `json:"n"`
	NnzL     int64  `json:"nnz_l"`
	NRHS     int    `json:"nrhs"`
	Clients  int    `json:"clients"`
	Backends int    `json:"backends"`

	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`

	// A metric the workload does not exercise is absent, never 0.
	EndToEnd map[string]metric `json:"end_to_end,omitempty"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	Labels   map[string]string `json:"labels,omitempty"`

	spans []span
}

func newResult(w workloadSpec, sys *system) *result {
	return &result{
		Workload: w.Name, Why: w.Why, Problem: sys.pr.Name,
		N: sys.pr.Sym.N, NnzL: sys.pr.Sym.NnzL,
		NRHS: w.NRHS, Clients: w.Clients, Backends: w.Backends,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}, Labels: map[string]string{},
	}
}

func (r *result) e2e(name string, m metric) {
	m.Unit = unitOf(name)
	r.EndToEnd[name] = m
}

// layer records a per-layer metric. A value that is not a number — a
// median over no samples, in a window too short for the step — is left
// out, like a layer the workload does not cross.
func (r *result) layer(name string, v float64) {
	if !finite(v) {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s not measured (no samples in its step)\n", r.Workload, name)
		return
	}
	r.PerLayer[name] = metric{Value: v, Unit: unitOf(name)}
}

// count folds one loop's operations into the workload's totals.
func (r *result) count(l loopResult) {
	r.Attempted += l.attempted
	r.Failed += l.failed
}

// op counts one operation made outside a closed loop; a non-nil err is
// a failed operation.
func (r *result) op(what string, err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		logFailure(what, err)
	}
}

// closeOut derives the ratio both metric tables carry from the totals.
func (r *result) closeOut(measured, traced bool) {
	ratio := float64(r.Failed) / float64(max(r.Attempted, 1))
	if measured {
		r.e2e("fail_ratio", metric{Value: ratio, Samples: int(r.Attempted)})
	}
	if traced {
		r.layer("fail_ratio", ratio)
	}
}

// clientRows fills the client-observed noise-floor rows from the
// workload loop and returns its p50 (ms).
func (r *result) clientRows(l loopResult, window time.Duration, units int) (p50 float64) {
	lat := durationsMs(l.samples, window)
	_, slices := throughput(l.samples, window, units)
	if tailSupported(len(lat), 0.90) {
		r.layer("client.p90_ms", quantile(lat, 0.90))
	}
	if tailSupported(len(lat), 0.99) {
		r.layer("client.p99_ms", quantile(lat, 0.99))
	}
	r.layer("client.window_spread_pct", spreadPct(slices))
	return quantile(lat, 0.5)
}

// print writes the workload's metrics as the human-readable table.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "\n%s  (%s, N = %d, nnz(L) = %d, %d client(s), NRHS = %d)\n",
		r.Workload, r.Problem, r.N, r.NnzL, r.Clients, r.NRHS)
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, tbl := range []struct {
		title string
		defs  []metricDef
		m     map[string]metric
	}{{"end to end", endToEnd, r.EndToEnd}, {"per layer", perLayer, r.PerLayer}} {
		if len(tbl.m) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %s:\n", tbl.title)
		for _, d := range tbl.defs {
			m, ok := tbl.m[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "    %-34s %14.6g %-8s", d.Name, m.Value, m.Unit)
			if m.Samples > 0 {
				fmt.Fprintf(w, " n=%d", m.Samples)
			}
			if len(m.SubWindows) > 0 {
				fmt.Fprintf(w, " sub-windows=%.5g", m.SubWindows)
			}
			fmt.Fprintln(w)
		}
	}
	keys := make([]string, 0, len(r.Labels))
	for k := range r.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "    %-34s %14s\n", k, r.Labels[k])
	}
}

// procMark is a point-in-time reading of the process-level counters.
type procMark struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	gcPause time.Duration
}

func markProc() procMark {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return procMark{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: mem.Mallocs,
		gcPause: time.Duration(mem.PauseTotalNs),
	}
}

// procRows reports what the process spent between two marks that
// bracket one loop of `requests` calls.
func (r *result) procRows(a, b procMark, requests int64) {
	wall := b.at.Sub(a.at)
	r.layer("proc.cpu_util", float64(b.cpu-a.cpu)/float64(wall)/float64(runtime.GOMAXPROCS(0)))
	r.layer("proc.gc_pause_ms", ms(b.gcPause-a.gcPause))
	r.layer("proc.allocs_per_request", float64(b.mallocs-a.mallocs)/float64(max(requests, 1)))
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	r.layer("proc.rss_peak_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
