package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// asCommandEnv makes the test binary behave as the benchmark command:
// the suite mode starts one process of its own executable per workload,
// which under `go test` is this binary.
const asCommandEnv = "SPTRSV_BENCHMARK_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(asCommandEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors ../BENCHMARK.json, the driver's view of this
// program.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkJSON keeps the two descriptions of the
// benchmark — the catalogue in spec.go and BENCHMARK.json — from
// drifting apart.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	var driver []metricDef
	for _, d := range endToEnd {
		if d.Driver {
			driver = append(driver, d)
		}
	}
	if len(b.EndToEnd) != len(driver) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program sends the driver %d", len(b.EndToEnd), len(driver))
	}
	sawSetup := false
	for i, m := range b.EndToEnd {
		d := driver[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalogue %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, m, d)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// lastLine runs the command and decodes the last line of its standard
// output, which must hold exactly the driver's four keys.
func lastLine(t *testing.T, args ...string) (int, driverLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("%v: last line is not a JSON object: %v\nstderr: %s", args, err, stderr.String())
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("%v: result line lacks %q", args, k)
		}
	}
	if len(raw) != 4 {
		t.Errorf("%v: result line has %d keys, want exactly 4", args, len(raw))
	}
	var line driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if code != 0 && stderr.Len() == 0 {
		t.Errorf("%v: exit code %d with nothing on stderr", args, code)
	}
	return code, line
}

// settle waits for the goroutine count to come back to at most `base`.
func settle(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(3 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// TestSmoke runs all four workloads at -short size, measured and traced,
// and holds each result line to what BENCHMARK.json promises the driver.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		spec, err := workloadByName(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		for _, mode := range []string{"0", "1"} {
			code, line := lastLine(t, "-short", "-seconds", "0.3", "-workload", w.Name, "-trace", mode)
			if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Fatalf("%s -trace %s: exit %d, correct %v, %d of %d failed", w.Name, mode, code, line.Correct, line.Failed, line.Attempted)
			}
			want := map[string]string{}
			if mode == "0" {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s -trace %s: %d metrics, BENCHMARK.json promises %d", w.Name, mode, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := line.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s -trace %s: %s is missing", w.Name, mode, name)
				case !finite(m.Value):
					t.Errorf("%s -trace %s: %s = %v", w.Name, mode, name, m.Value)
				case m.Unit != unit || !unitRE.MatchString(unit):
					t.Errorf("%s -trace %s: %s has unit %q, want %q", w.Name, mode, name, m.Unit, unit)
				case !nameRE.MatchString(name):
					t.Errorf("metric name %q breaks the naming rule", name)
				case mode == "0" && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
				}
			}
			if mode == "0" {
				continue
			}
			v := func(name string) float64 { return line.Metrics[name].Value }
			if v("fail_ratio") != 0 {
				t.Errorf("%s: fail_ratio = %v", w.Name, v("fail_ratio"))
			}
			if spec.Engine {
				if v("native.allocs_per_solve") != 0 {
					t.Errorf("%s: native.allocs_per_solve = %v, want 0", w.Name, v("native.allocs_per_solve"))
				}
				continue
			}
			callers := spec.Clients
			if spec.UpdatesPerSec > 0 {
				callers++
				if v("cluster.updates_sent") < 1 || v("registry.refactorizations") != v("cluster.updates_sent") {
					t.Errorf("%s: %v refactorizations for %v updates sent", w.Name, v("registry.refactorizations"), v("cluster.updates_sent"))
				}
				if v("cluster.partial_updates") != 0 {
					t.Errorf("%s: cluster.partial_updates = %v", w.Name, v("cluster.partial_updates"))
				}
			}
			if v("client.conns_opened") != float64(callers) {
				t.Errorf("%s: client.conns_opened = %v, want one per caller = %d", w.Name, v("client.conns_opened"), callers)
			}
		}
		if n := settle(base); n > base {
			buf := make([]byte, 1<<16)
			t.Errorf("%s: %d goroutines outlive the workload (%d before it)\n%s", w.Name, n, base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestTeardownClosesListeners: after teardown nothing accepts on the
// addresses the workload listened on.
func TestTeardownClosesListeners(t *testing.T) {
	spec, err := workloadByName("cluster-update")
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{seed: 1, seconds: 0.2, short: true}
	sys, err := buildSystem(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	or, err := newOracle(sys, cfg.seed, spec.Clients*rhsPerClient+1, spec.NRHS, true)
	if err != nil {
		t.Fatal(err)
	}
	h := newHTTPLoad(spec, cfg, sys, or)
	res := newResult(spec, sys)
	if _, err := h.setup(res); err != nil {
		t.Fatal(err)
	}
	addrs := []string{h.st.entry}
	for _, b := range h.st.backends {
		addrs = append(addrs, b.url)
	}
	h.teardown()
	if res.Failed != 0 {
		t.Errorf("set-up: %d of %d operations failed", res.Failed, res.Attempted)
	}
	for _, a := range addrs {
		conn, err := net.DialTimeout("tcp", strings.TrimPrefix(a, "http://"), time.Second)
		if err == nil {
			conn.Close()
			t.Errorf("%s still accepts connections after teardown", a)
		}
	}
}

// TestCorruptReferenceFailsTheRun: the oracle is what makes "correct"
// mean something, so a reference damaged on purpose must turn into a
// failed operation, correct=false and a non-zero exit.
func TestCorruptReferenceFailsTheRun(t *testing.T) {
	for _, w := range []string{"engine-grid-1rhs", "daemon-solve"} {
		code, line := lastLine(t, "-short", "-seconds", "0.2", "-workload", w, "-trace", "0", "-corrupt-reference")
		if code == 0 || line.Correct || line.Failed == 0 {
			t.Errorf("%s with a corrupted reference: exit %d, correct %v, failed %d", w, code, line.Correct, line.Failed)
		}
	}
}

// TestSuiteRunsEachWorkloadInAChild: without -workload every workload
// runs in a process of its own and the parent prints one result line per
// workload and run, plus the A/A table.
func TestSuiteRunsEachWorkloadInAChild(t *testing.T) {
	t.Setenv(asCommandEnv, "1")
	var stdout, stderr bytes.Buffer
	// The exit code may be 1: at -short size two runs need not agree
	// within the bounds. Failed operations would show in the lines.
	if code := run([]string{"-short", "-seconds", "0.2", "-trace", "0", "-aa", "2"}, &stdout, &stderr); code > 1 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "A/A over 2 runs") {
		t.Errorf("no A/A table in the output")
	}
	var lines []driverLine
	for _, l := range strings.Split(stdout.String(), "\n") {
		var line driverLine
		if strings.HasPrefix(l, "{") && json.Unmarshal([]byte(l), &line) == nil {
			lines = append(lines, line)
		}
	}
	if len(lines) != 2*len(workloads) {
		t.Fatalf("%d result lines, want %d\n%s", len(lines), 2*len(workloads), stderr.String())
	}
	for i, line := range lines {
		if !line.Correct || line.Failed != 0 || len(line.Metrics) == 0 {
			t.Errorf("result line %d: %+v", i, line)
		}
	}
}

// TestAA: the A/A mode reports every end-to-end metric of every workload
// it ran and passes on identical exact metrics.
func TestAA(t *testing.T) {
	runs := [][]*result{
		{{Workload: "w", EndToEnd: map[string]metric{"resident_mb": {Value: 10}, "solve_p50_ms": {Value: 1.0}}}},
		{{Workload: "w", EndToEnd: map[string]metric{"resident_mb": {Value: 10}, "solve_p50_ms": {Value: 2.0}}}},
	}
	rows := aaRows(runs)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		switch r.Metric {
		case "resident_mb":
			if !r.OK || r.MaxRelDev != 0 {
				t.Errorf("resident_mb: %+v", r)
			}
		case "solve_p50_ms":
			// 1.0 and 2.0 sit a third of their midpoint 1.5 away from it.
			if r.OK || r.Median != 1.5 || math.Abs(r.MaxRelDev-1.0/3) > 1e-12 {
				t.Errorf("solve_p50_ms 1.0 vs 2.0 must exceed its bound: %+v", r)
			}
		}
	}
}
