// Command benchmark is the repository's one benchmark: four workloads
// over the whole stack (native sweep engine → coalescing server →
// registry → HTTP daemon → cluster router), six end-to-end metrics, and
// a per-layer trace taken from outside by timing calls into each layer's
// public functions. Every answer is verified against a reference; a
// wrong answer makes the command exit non-zero. It claims no gain — it
// is what later claims are measured with. See README.md beside it.
//
// Usage:
//
//	go run ./benchmark                      # all four workloads, measured then traced
//	go run ./benchmark -workload daemon-solve -seed 2 -seconds 20 -trace 0
//	go run ./benchmark -aa 2 -out benchmark/baseline.json
//	go run ./benchmark -short               # tiny sizes, for tests; not comparable
//
// The last line of standard output per workload is one JSON object
// {"correct", "attempted", "failed", "metrics"}: with -trace 0 the
// end-to-end metrics BENCHMARK.json lists, with -trace 1 its per-layer
// metrics (a layer the workload does not cross reads 0 there; the
// document written by -out leaves it out instead).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"time"
)

// runConfig is one invocation's shape.
type runConfig struct {
	seed     int64
	seconds  float64 // the measured window; the traced run splits the same budget over its steps
	short    bool
	measured bool // run the end-to-end window
	traced   bool // run the per-layer steps
	corrupt  bool // -corrupt-reference: damage one reference, so a wrong answer must surface
}

func (c runConfig) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// warmup is the untimed lead-in of a loop with the given window. Short
// steps warm up in proportion, so a traced run costs about as much wall
// time as a measured one.
func (c runConfig) warmup(window time.Duration) time.Duration {
	w := warmupFull
	if c.short {
		w = warmupShort
	}
	return min(w, window/4)
}

// enoughSetups says whether setup_s may be taken as the median of the n
// cold set-ups made so far, which took `spent` seconds together: at
// least minSetups, and for a system that sets up in milliseconds more —
// until they fill setupBudget or there are maxSetups — because the
// median of three 15 ms set-ups on a shared host is mostly noise.
func (c runConfig) enoughSetups(n int, spent float64) bool {
	return n >= maxSetups || n >= minSetups && (c.short || spent >= setupBudget.Seconds())
}

// load is what the two families of workloads implement.
type load interface {
	// setup is one cold set-up, problem spec → first answer; it leaves
	// the system live. teardown stops everything setup started.
	setup(res *result) (time.Duration, error)
	teardown()
	measure(res *result)
	trace(res *result)
}

// runWorkload generates the workload's inputs from the seed, sets the
// system up (several times cold when measuring, see runConfig.enoughSetups),
// and runs the requested halves.
func runWorkload(spec workloadSpec, cfg runConfig) (*result, error) {
	sys, err := buildSystem(spec, cfg.short)
	if err != nil {
		return nil, err
	}
	nRHS := spec.Clients * rhsPerClient
	if spec.UpdatesPerSec > 0 {
		nRHS++ // the writer's probe
	}
	or, err := newOracle(sys, cfg.seed, nRHS, spec.NRHS, spec.UpdatesPerSec > 0)
	if err != nil {
		return nil, fmt.Errorf("%s: building the oracle: %w", spec.Name, err)
	}
	if cfg.corrupt {
		or.corrupt()
	}
	res := newResult(spec, sys)
	var l load
	if spec.Engine {
		l = &engine{spec: spec, cfg: cfg, or: or}
	} else {
		l = newHTTPLoad(spec, cfg, sys, or)
	}
	var took []float64
	for spent := 0.0; ; {
		// Every set-up starts from a collected heap, the previous one's
		// factor gone: cold for the program, not for the allocator.
		l.teardown()
		runtime.GC()
		d, err := l.setup(res)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.Name, err)
		}
		took = append(took, d.Seconds())
		spent += d.Seconds()
		if !cfg.measured || cfg.enoughSetups(len(took), spent) {
			break
		}
	}
	defer l.teardown()
	if cfg.measured {
		res.e2e("setup_s", metric{Value: median(took), Samples: len(took)})
		l.measure(res)
	}
	if cfg.traced {
		l.trace(res)
	}
	res.closeOut(cfg.measured, cfg.traced)
	return res, nil
}

// document is the full output: what -out writes and what
// benchmark/baseline.json holds.
type document struct {
	Benchmark string `json:"benchmark"`
	// Claim is always null: this program defines the measure and claims
	// no gain. A later issue names its claim as `metric` on `workload`.
	Claim      *string     `json:"claim"`
	Comparable bool        `json:"comparable"` // false under -short or a non-default -seconds
	Host       hostInfo    `json:"host"`
	Seed       int64       `json:"seed"`
	WindowS    float64     `json:"window_s"`
	WarmupS    float64     `json:"warmup_s"`
	SubWindows int         `json:"sub_windows"`
	Runs       [][]*result `json:"runs"`
	AA         []aaRow     `json:"aa,omitempty"`
}

// aaRow is one line of the -aa report: the same code run N times, per
// end-to-end metric and workload.
type aaRow struct {
	Workload  string    `json:"workload"`
	Metric    string    `json:"metric"`
	Unit      string    `json:"unit"`
	Values    []float64 `json:"values"`
	Median    float64   `json:"median"`
	MaxRelDev float64   `json:"max_rel_dev"`
	Bound     float64   `json:"bound"`
	OK        bool      `json:"ok"`
}

func aaRows(runs [][]*result) []aaRow {
	var rows []aaRow
	for wi, first := range runs[0] {
		for _, def := range endToEnd {
			if _, ok := first.EndToEnd[def.Name]; !ok {
				continue
			}
			row := aaRow{Workload: first.Workload, Metric: def.Name, Unit: def.Unit, Bound: def.Bound}
			for _, run := range runs {
				row.Values = append(row.Values, run[wi].EndToEnd[def.Name].Value)
			}
			row.Median = median(row.Values) // of two runs: their midpoint
			for _, v := range row.Values {
				dev := math.Abs(v - row.Median)
				if row.Median != 0 {
					dev /= math.Abs(row.Median)
				}
				row.MaxRelDev = max(row.MaxRelDev, dev)
			}
			row.OK = row.MaxRelDev <= def.Bound
			rows = append(rows, row)
		}
	}
	return rows
}

// driverLine is the contract with the driver: the last line of standard
// output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) driverLine(cfg runConfig) (driverLine, error) {
	line := driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverMetric{}}
	if cfg.measured {
		for _, def := range endToEnd {
			if !def.Driver {
				continue
			}
			m, ok := r.EndToEnd[def.Name]
			if !ok || !finite(m.Value) {
				return line, fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, def.Name)
			}
			line.Metrics[def.Name] = driverMetric{m.Value, def.Unit}
		}
	}
	if cfg.traced {
		for _, def := range perLayer {
			m := r.PerLayer[def.Name] // a layer the workload does not cross reads 0
			if !finite(m.Value) {
				return line, fmt.Errorf("%s: per-layer metric %s is not finite", r.Workload, def.Name)
			}
			line.Metrics[def.Name] = driverMetric{m.Value, def.Unit}
		}
	}
	return line, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload (default: all four)")
		seed     = fs.Int64("seed", 1, "seed of every generated input: right-hand sides and the second value set")
		seconds  = fs.Float64("seconds", defaultSeconds, "measured window in seconds; the traced run splits the same budget over its steps")
		trace    = fs.String("trace", "", "0 = measured run only (end-to-end metrics), 1 = traced run only (per-layer metrics), empty = both")
		short    = fs.Bool("short", false, "tiny problems, for tests only; stamps the output as not comparable")
		aa       = fs.Int("aa", 0, "run the whole suite N times back to back and check the end-to-end metrics agree within their bounds")
		out      = fs.String("out", "", "write the full JSON document here")
		spans    = fs.String("spans", "", "write every recorded span here (JSON)")
		corrupt  = fs.Bool("corrupt-reference", false, "for tests only: damage one reference answer, so the run must report a wrong answer and exit non-zero")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, short: *short, measured: *trace != "1", traced: *trace != "0", corrupt: *corrupt}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fmt.Fprintf(stderr, "benchmark: -trace wants 0 or 1, got %q\n", *trace)
		return 2
	}
	if !(cfg.seconds > 0) {
		fmt.Fprintf(stderr, "benchmark: -seconds must be positive\n")
		return 2
	}
	doc := document{
		Benchmark: "sptrsv/benchmark", Comparable: !cfg.short && cfg.seconds == defaultSeconds,
		Host: fingerprint(), Seed: cfg.seed, WindowS: cfg.seconds,
		WarmupS: cfg.warmup(cfg.window()).Seconds(), SubWindows: subWindows,
	}
	fmt.Fprintf(stdout, "sptrsv benchmark: seed %d, window %gs after %gs warm-up, GOMAXPROCS %d of %d CPUs (%s), %s, commit %s\n",
		cfg.seed, cfg.seconds, doc.WarmupS, doc.Host.GOMAXPROCS, doc.Host.NProc, doc.Host.CPUModel, doc.Host.GoVersion, doc.Host.GitCommit)
	if !doc.Comparable {
		fmt.Fprintln(stdout, "NOT COMPARABLE: -short or a non-default -seconds; these numbers join no trajectory")
	}

	// One workload runs here. The suite runs each workload in a process
	// of its own, as the driver does: in one process a workload inherits
	// its predecessors' heap (mapped, warm spans), which moved
	// cluster-update's throughput by a quarter and set-up times by a
	// third between otherwise identical runs.
	runOne := func(spec workloadSpec) (*result, error) { return runWorkload(spec, cfg) }
	specs := workloads
	if *workload != "" {
		spec, err := workloadByName(*workload)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		specs = []workloadSpec{spec}
	} else {
		childArgs := []string{"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds)}
		if *trace != "" {
			childArgs = append(childArgs, "-trace", *trace)
		}
		if cfg.short {
			childArgs = append(childArgs, "-short")
		}
		if cfg.corrupt {
			childArgs = append(childArgs, "-corrupt-reference")
		}
		runOne = func(spec workloadSpec) (*result, error) {
			return runInChild(spec, childArgs, *spans != "", stderr)
		}
	}

	code := 0
	var lines []driverLine
	allSpans := map[string][]span{}
	for rep := 0; rep < max(*aa, 1); rep++ {
		var results []*result
		for _, spec := range specs {
			res, err := runOne(spec)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			res.print(stdout)
			if res.Failed > 0 {
				fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed\n", res.Workload, res.Failed, res.Attempted)
				code = 1
			}
			line, err := res.driverLine(cfg)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			lines = append(lines, line)
			allSpans[res.Workload] = append(allSpans[res.Workload], res.spans...)
			results = append(results, res)
		}
		doc.Runs = append(doc.Runs, results)
	}
	if *aa > 0 {
		doc.AA = aaRows(doc.Runs)
		fmt.Fprintf(stdout, "\nA/A over %d runs of the same code:\n", *aa)
		for _, row := range doc.AA {
			verdict := "ok"
			if !row.OK {
				verdict = "EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "  %-18s %-24s %.6g %-6s median %.6g, max deviation %.2f%% (bound %.0f%%) %s\n",
				row.Workload, row.Metric, row.Values, row.Unit, row.Median, 100*row.MaxRelDev, 100*row.Bound, verdict)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if *spans != "" {
		if err := writeJSON(*spans, allSpans); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout)
	enc := json.NewEncoder(stdout)
	for _, line := range lines {
		if err := enc.Encode(line); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// runInChild runs one workload in a fresh process of this same program
// and returns what it measured. The child writes its document and spans
// to two inherited pipes (-out /dev/fd/3, -spans /dev/fd/4); its tables
// are not needed, the parent prints the result itself.
func runInChild(spec workloadSpec, args []string, wantSpans bool, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args = append(args[:len(args):len(args)], "-workload", spec.Name, "-out", "/dev/fd/3")
	if wantSpans {
		args = append(args, "-spans", "/dev/fd/4")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	var pipes [2]struct {
		r    *os.File
		data []byte
		err  error
	}
	var wg sync.WaitGroup
	for i := range pipes {
		r, w, err := os.Pipe()
		if err != nil {
			return nil, err
		}
		defer r.Close()
		defer w.Close()
		cmd.ExtraFiles = append(cmd.ExtraFiles, w)
		pipes[i].r = r
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: starting the child: %w", spec.Name, err)
	}
	for i, w := range cmd.ExtraFiles {
		w.Close() // the child holds the write ends now; ours would keep the readers from seeing EOF
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pipes[i].data, pipes[i].err = io.ReadAll(pipes[i].r)
		}(i)
	}
	wg.Wait()
	// Exit code 1 with a document means failed operations, which the
	// document's own counts report; anything else the child explained on
	// stderr.
	if err := cmd.Wait(); err != nil && len(pipes[0].data) == 0 {
		return nil, fmt.Errorf("%s: child: %w", spec.Name, err)
	}
	var doc document
	if err := errors.Join(pipes[0].err, json.Unmarshal(pipes[0].data, &doc)); err != nil {
		return nil, fmt.Errorf("%s: reading the child's document: %w", spec.Name, err)
	}
	if len(doc.Runs) != 1 || len(doc.Runs[0]) != 1 {
		return nil, fmt.Errorf("%s: the child's document holds no single result", spec.Name)
	}
	res := doc.Runs[0][0]
	if wantSpans {
		var spans map[string][]span
		if err := errors.Join(pipes[1].err, json.Unmarshal(pipes[1].data, &spans)); err != nil {
			return nil, fmt.Errorf("%s: reading the child's spans: %w", spec.Name, err)
		}
		res.spans = spans[spec.Name]
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
