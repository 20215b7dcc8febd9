package taskdag

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// shapes are the hand-built DAGs every executor test runs over.
var shapes = []struct {
	name  string
	graph Graph
}{
	{"single", graphOf(nil)},
	{"chain", graphOf([]int{1}, []int{2}, []int{3}, []int{4}, nil)},
	{"forest", graphOf([]int{2}, []int{2}, nil, []int{5}, []int{5}, nil, nil)},
	// Task 2 has two predecessors and two successors: not a tree.
	{"diamond", graphOf([]int{2}, []int{2}, []int{3, 4}, []int{5}, []int{5}, nil)},
}

// checker is a Runner that fails the test unless every task runs exactly
// once, after all its predecessors, on a worker in range.
type checker struct {
	t       *testing.T
	workers int
	preds   [][]int
	runs    []atomic.Int32
}

func newChecker(t *testing.T, g *Graph, workers int) *checker {
	c := &checker{t: t, workers: workers, preds: make([][]int, g.Tasks()), runs: make([]atomic.Int32, g.Tasks())}
	for tk := 0; tk < g.Tasks(); tk++ {
		for _, s := range succOf(g, tk) {
			c.preds[s] = append(c.preds[s], tk)
		}
	}
	return c
}

func (c *checker) RunTask(_ context.Context, worker, task int) error {
	if worker < 0 || worker >= max(c.workers, 1) {
		c.t.Errorf("task %d ran on worker %d of %d", task, worker, c.workers)
	}
	for _, p := range c.preds[task] {
		if c.runs[p].Load() != 1 {
			c.t.Errorf("task %d started before its predecessor %d finished", task, p)
		}
	}
	runtime.Gosched()
	c.runs[task].Add(1)
	return nil
}

// verify checks that the run covered every task once and resets the counts.
func (c *checker) verify(label string) {
	for tk := range c.runs {
		if n := c.runs[tk].Swap(0); n != 1 {
			c.t.Fatalf("%s: task %d ran %d times", label, tk, n)
		}
	}
}

// runnerFunc adapts a function to Runner.
type runnerFunc func(ctx context.Context, worker, task int) error

func (f runnerFunc) RunTask(ctx context.Context, worker, task int) error { return f(ctx, worker, task) }

func TestRunCoversEveryTaskInDependencyOrder(t *testing.T) {
	for _, sh := range shapes {
		for _, workers := range []int{1, 2, 4} {
			g := sh.graph
			e := NewExecutor(workers)
			c := newChecker(t, &g, workers)
			deps := make([]int32, g.Tasks())
			for rep := 0; rep < 5; rep++ {
				if err := e.Run(context.Background(), nil, &g, deps, c); err != nil {
					t.Fatalf("%s workers=%d: %v", sh.name, workers, err)
				}
				c.verify(fmt.Sprintf("%s workers=%d rep %d", sh.name, workers, rep))
			}
			if want := workers > 1 && g.Tasks() > 1; e.Started() != want {
				t.Fatalf("%s workers=%d: pool started %v, want %v", sh.name, workers, e.Started(), want)
			}
			e.Close()
			e.Close() // idempotent
		}
	}
}

func TestInlinePathRunsInTaskOrderOnTheCaller(t *testing.T) {
	g := shapes[3].graph
	var order []int
	e := NewExecutor(1)
	defer e.Close()
	err := e.Run(context.Background(), nil, &g, nil, runnerFunc(func(_ context.Context, w, tk int) error {
		order = append(order, tk) // no lock: the caller's goroutine runs every task
		return nil
	}))
	if err != nil || fmt.Sprint(order) != "[0 1 2 3 4 5]" {
		t.Fatalf("inline run: order %v, err %v", order, err)
	}
}

// TestFirstErrorWins fails task 0, the first source queued; every other
// source blocks until the run's cancel releases it and then fails too.
// The run must return task 0's error and start nothing after the failure.
func TestFirstErrorWins(t *testing.T) {
	first, later := errors.New("first"), errors.New("later")
	g := graphOf(nil, nil, nil, nil, []int{5}, nil)
	for _, workers := range []int{1, 2, 4} {
		e := NewExecutor(workers)
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		err := e.Run(ctx, cancel, &g, make([]int32, g.Tasks()), runnerFunc(func(ctx context.Context, _, tk int) error {
			started.Add(1)
			if tk == 0 {
				return first
			}
			<-ctx.Done()
			return later
		}))
		if !errors.Is(err, first) {
			t.Fatalf("workers=%d: got %v, want the first error", workers, err)
		}
		if n := started.Load(); n > int32(workers) {
			t.Fatalf("workers=%d: %d tasks started, want at most one per worker", workers, n)
		}
		cancel()
		e.Close()
	}
}

func TestPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sh := range shapes {
		for _, workers := range []int{1, 4} {
			g := sh.graph
			e := NewExecutor(workers)
			err := e.Run(ctx, nil, &g, make([]int32, g.Tasks()), runnerFunc(func(context.Context, int, int) error {
				t.Errorf("%s workers=%d: a task ran under a cancelled context", sh.name, workers)
				return nil
			}))
			var ce *CancelledError
			if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s workers=%d: got %v, want *CancelledError wrapping context.Canceled", sh.name, workers, err)
			}
			e.Close()
		}
	}
}

// TestMidRunCancellation cancels the caller's context while task 0 of a
// chain is running: the run reports *CancelledError with the context's
// cause, and no later task starts.
func TestMidRunCancellation(t *testing.T) {
	g := shapes[1].graph // chain
	for _, workers := range []int{1, 2, 4} {
		e := NewExecutor(workers)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		var later atomic.Int32
		err := e.Run(ctx, nil, &g, make([]int32, g.Tasks()), runnerFunc(func(ctx context.Context, _, tk int) error {
			if tk > 0 {
				later.Add(1)
				return nil
			}
			<-ctx.Done()
			time.Sleep(20 * time.Millisecond) // a stalled task finishes late, successfully
			return nil
		}))
		var ce *CancelledError
		if !errors.As(err, &ce) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: got %v, want *CancelledError wrapping the deadline", workers, err)
		}
		if n := later.Load(); n != 0 {
			t.Fatalf("workers=%d: %d tasks started after the cancellation", workers, n)
		}
		cancel()
		e.Close()
	}
}

// TestReuseAfterFailedRun fails a run while other tasks are queued or in
// flight, then reuses the executor: items of the aborted run that a
// worker still holds carry a stale epoch and must be dropped, so the next
// run covers every task exactly once.
func TestReuseAfterFailedRun(t *testing.T) {
	wide := graphOf(append(make([][]int, 15), nil)...) // 16 independent tasks
	boom := errors.New("boom")
	for _, workers := range []int{2, 4} {
		e := NewExecutor(workers)
		c := newChecker(t, &wide, workers)
		deps := make([]int32, wide.Tasks())
		for round := 0; round < 50; round++ {
			fail := round % wide.Tasks()
			err := e.Run(context.Background(), nil, &wide, deps, runnerFunc(func(_ context.Context, _, tk int) error {
				if tk == fail {
					return boom
				}
				runtime.Gosched()
				return nil
			}))
			if !errors.Is(err, boom) {
				t.Fatalf("workers=%d round %d: got %v, want the task error", workers, round, err)
			}
			if err := e.Run(context.Background(), nil, &wide, deps, c); err != nil {
				t.Fatalf("workers=%d round %d: run after a failed one: %v", workers, round, err)
			}
			c.verify(fmt.Sprintf("workers=%d round %d", workers, round))
		}
		e.Close()
	}
}

func TestWarmRunAllocatesNothing(t *testing.T) {
	g := shapes[3].graph
	noop := runnerFunc(func(context.Context, int, int) error { return nil })
	for _, workers := range []int{1, 4} {
		e := NewExecutor(workers)
		deps := make([]int32, g.Tasks())
		ctx := context.Background()
		run := func() {
			if err := e.Run(ctx, nil, &g, deps, noop); err != nil {
				t.Fatal(err)
			}
		}
		run() // spawns the pool
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("workers=%d: %.1f allocs per warm run, want 0", workers, allocs)
		}
		e.Close()
	}
}

// TestCloseReturnsGoroutines pins the pool's lifetime: the first parallel
// run spawns one goroutine per worker (at most one per task), and Close
// returns the count to where it was.
func TestCloseReturnsGoroutines(t *testing.T) {
	g := shapes[3].graph
	// Workers of executors closed by earlier tests may still be exiting.
	base := runtime.NumGoroutine()
	for stable := 0; stable < 20; {
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n == base {
			stable++
		} else {
			base, stable = n, 0
		}
	}
	e := NewExecutor(4)
	if err := e.Run(context.Background(), nil, &g, make([]int32, g.Tasks()), newChecker(t, &g, 4)); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != base+4 {
		t.Fatalf("%d goroutines after the first run, want %d + 4 workers", n, base)
	}
	e.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after Close, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkHandoff times a hand-off to a parked worker, the cost a task
// must outweigh (minTaskWork's comment sets the two side by side): a
// worker finishes task 0 and queues its two successors, takes one of them and
// keeps computing, while the other waits for the parked second worker to
// wake and start it. The gap runs from task 0's last instruction to the
// start of the successor on the other worker (or, when the busy worker
// gets to it first, to the later start), one gap per Run; the benchmark
// reports its median and 90th percentile. busy is how long each task
// computes.
func BenchmarkHandoff(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("a hand-off needs two Ps")
	}
	for _, busy := range []time.Duration{0, 200 * time.Microsecond, 2 * time.Millisecond} {
		b.Run(fmt.Sprintf("waker-busy=%v", busy), func(b *testing.B) {
			g := graphOf([]int{1, 2}, nil, nil)
			e := NewExecutor(2)
			defer e.Close()
			deps := make([]int32, g.Tasks())
			spin := func(d time.Duration) {
				for t0 := time.Now(); time.Since(t0) < d; {
				}
			}
			var queued, start [3]time.Time
			var on [3]int
			r := runnerFunc(func(_ context.Context, worker, task int) error {
				on[task] = worker
				if task == 0 {
					spin(50 * time.Microsecond) // let the other worker park
					queued[0] = time.Now()
					return nil
				}
				start[task] = time.Now()
				spin(busy)
				return nil
			})
			gaps := make([]time.Duration, 0, b.N)
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if err := e.Run(ctx, nil, &g, deps, r); err != nil {
					b.Fatal(err)
				}
				handed := start[1]
				if on[2] != on[0] || (on[1] == on[0] && start[2].After(start[1])) {
					handed = start[2]
				}
				gaps = append(gaps, handed.Sub(queued[0]))
			}
			slices.Sort(gaps)
			b.ReportMetric(float64(gaps[len(gaps)/2].Nanoseconds())/1e3, "µs-p50")
			b.ReportMetric(float64(gaps[len(gaps)*9/10].Nanoseconds())/1e3, "µs-p90")
		})
	}
}
