package native

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"sptrsv/internal/chol"
	"sptrsv/internal/mesh"
	"sptrsv/internal/taskdag"
)

// The tests in this file pin where the top of the tree splits into
// RHS-lane windows (grain.go) and how a width is cut into them.

// TestLaneWindowsCoverTheWidth checks laneWindow for every width 8..67
// and every window count a width allows: the windows tile [0, m) in
// order, each starts on a whole four-lane chunk and is at least one chunk
// wide, their chunk counts differ by at most one, and the last takes the
// remainder lanes.
func TestLaneWindowsCoverTheWidth(t *testing.T) {
	for m := minSplitWidth; m <= 67; m++ {
		for k := 1; k <= m/windowLanes; k++ {
			next, least, most := 0, m, 0
			for i := 0; i < k; i++ {
				k0, k1 := laneWindow(m, k, i)
				if k0 != next || k0%windowLanes != 0 || k1-k0 < windowLanes {
					t.Fatalf("m=%d k=%d: window %d is [%d, %d) after %d", m, k, i, k0, k1, next)
				}
				chunks := (k1 - k0) / windowLanes
				least, most = min(least, chunks), max(most, chunks)
				next = k1
			}
			if next != m || most-least > 1 {
				t.Fatalf("m=%d k=%d: windows end at %d, chunk counts %d..%d", m, k, next, least, most)
			}
		}
	}
}

// expectedWindows is the split rule written out on its own: a supernode
// at depth l < ⌊log₂ workers⌋ whose own work w reaches the task cutoff
// runs as min(⌊workers/2^l⌋, ⌊m/4⌋) windows at a width m ≥ 8, or fewer
// where w·m over that many windows falls short of 2²⁰ flops a window,
// every other supernode as one. Under grain 0 the cutoff is the derived
// one; under any other grain it is grain's (none when negative), and a
// window has no least work.
func expectedWindows(f *chol.Factor, workers, grain, m int) []int {
	sym := f.Sym
	var total int64
	for s := 0; s < sym.NSuper; s++ {
		total += solveWork(sym, s)
	}
	cutoff := int64(grain)
	if grain == 0 {
		cutoff = taskdag.Cutoff(total, workers)
	}
	depth := make([]int, sym.NSuper)
	want := make([]int, sym.NSuper)
	for s := sym.NSuper - 1; s >= 0; s-- {
		if p := sym.SParent[s]; p >= 0 {
			depth[s] = depth[p] + 1
		}
		want[s] = 1
		if w := solveWork(sym, s); m >= 8 && depth[s] < bits.Len(uint(workers))-1 && w >= cutoff {
			want[s] = min(workers>>depth[s], m/4)
			for grain == 0 && want[s] > 1 && w*int64(m) < int64(want[s])<<20 {
				want[s]--
			}
		}
	}
	return want
}

// derivedGrain is the cutoff grain 0 derives on workers workers, as a
// test grain: the same tasks and window caps, but no least work a window
// must carry, so small problems run windows too.
func derivedGrain(f *chol.Factor, workers int) int {
	var total int64
	for s := 0; s < f.Sym.NSuper; s++ {
		total += solveWork(f.Sym, s)
	}
	return int(taskdag.Cutoff(total, workers))
}

// windowsRun solves at width m and returns how many tasks ran each
// supernode in each sweep (the hook runs once per window task), and the
// solve's task count.
func windowsRun(t *testing.T, f *chol.Factor, workers, grain, m int) (forward, backward []int, tasks int) {
	t.Helper()
	forward, backward = make([]int, f.Sym.NSuper), make([]int, f.Sym.NSuper)
	var mu sync.Mutex
	sv := NewSolver(f, Options{Workers: workers, grain: grain, TaskHook: func(_ context.Context, p TaskPhase, s int) error {
		mu.Lock()
		defer mu.Unlock()
		if p == ForwardPhase {
			forward[s]++
		} else {
			backward[s]++
		}
		return nil
	}})
	defer sv.Close()
	_, st, err := sv.SolveCtx(context.Background(), mesh.RandomRHS(f.Sym.N, m, int64(m)))
	if err != nil {
		t.Fatal(err)
	}
	return forward, backward, st.Tasks
}

// checkWindows fails unless the solve at (workers, grain, m) ran every
// supernode as the split rule says, in both sweeps, with one task per
// window, and returns the windows per depth: split[l] counts the split
// supernodes at depth l.
func checkWindows(t *testing.T, name string, f *chol.Factor, workers, grain, m int) (split map[int]int) {
	t.Helper()
	want := expectedWindows(f, workers, grain, m)
	forward, backward, tasks := windowsRun(t, f, workers, grain, m)
	unsplit, _, _ := partition(f.Sym, grain, workers)
	wantTasks := unsplit.Tasks()
	split = map[int]int{}
	for s := range want {
		if forward[s] != want[s] || backward[s] != want[s] {
			t.Fatalf("%s workers=%d grain=%s m=%d: supernode %d ran as %d forward and %d backward tasks, want %d",
				name, workers, grainName(grain), m, s, forward[s], backward[s], want[s])
		}
		if want[s] > 1 {
			wantTasks += want[s] - 1
			d := 0
			for p := f.Sym.SParent[s]; p >= 0; p = f.Sym.SParent[p] {
				d++
			}
			split[d]++
		}
	}
	if tasks != wantTasks {
		t.Fatalf("%s workers=%d grain=%s m=%d: Stats.Tasks %d, want %d", name, workers, grainName(grain), m, tasks, wantTasks)
	}
	return split
}

// TestSplitFollowsTheRule is the proof that the windows run where the
// rule puts them, and only there. On the cubes of
// TestBitwiseMatchesSimulator at workers {2, 3, 4, 8, 16} and m ∈ {8, 9,
// 30, 33} the root splits under the derived cutoff without the least
// window work (derivedGrain, as TestBitwiseMatchesSimulator runs them),
// and from four workers on CUBE-9 a supernode at depth 1 splits too;
// below m = 8 nothing splits. Under grain 0 those cubes' windows would
// carry too little work, and nothing splits. CUBE-15's root, 144 020
// flops per right-hand side, splits under grain 0 on two workers at m =
// 16 and 30 but not at m = 8 or 9, where two windows would carry less
// than 2²⁰ flops each. On the grid of TestScheduleIndependence, grain 1
// splits the root at m = 30 from two workers on and depth 1 from four.
// At the benchmark's two workers the grids the daemon, the router and
// the 1-RHS engine run, GRID2D-63, GRID2D-127 and GRID2D-255, keep the
// unsplit schedule at every width; GRID2D-63's root reaches its cutoff
// and is kept whole by the least window work alone.
func TestSplitFollowsTheRule(t *testing.T) {
	for _, c := range []struct {
		name string
		side int
	}{{"CUBE-7", 7}, {"CUBE-9", 9}} {
		_, f := setupAmalgamated(t, mesh.Problem{A: mesh.Grid3D(c.side, c.side, c.side), Geom: mesh.Grid3DGeometry(c.side, c.side, c.side)})
		for _, w := range []int{2, 3, 4, 8, 16} {
			for _, m := range []int{1, 4, 7, 8, 9, 30, 33} {
				split := checkWindows(t, c.name, f, w, derivedGrain(f, w), m)
				switch {
				case m < minSplitWidth && len(split) > 0:
					t.Fatalf("%s workers=%d m=%d: split %v below m = %d", c.name, w, m, split, minSplitWidth)
				case m >= minSplitWidth && split[0] == 0:
					t.Fatalf("%s workers=%d m=%d: the root did not split", c.name, w, m)
				case c.name == "CUBE-9" && m >= minSplitWidth && w >= 4 && split[1] == 0:
					t.Fatalf("%s workers=%d m=%d: no supernode at depth 1 split", c.name, w, m)
				}
				if split := checkWindows(t, c.name, f, w, 0, m); len(split) > 0 {
					t.Fatalf("%s workers=%d m=%d: split %v under grain 0", c.name, w, m, split)
				}
			}
		}
	}
	_, f := setupAmalgamated(t, mesh.Problem{A: mesh.Grid3D(15, 15, 15), Geom: mesh.Grid3DGeometry(15, 15, 15)})
	for _, m := range []int{8, 9, 16, 30} {
		if split := checkWindows(t, "CUBE-15", f, 2, 0, m); (split[0] > 0) != (m >= 16) {
			t.Fatalf("CUBE-15 workers=2 m=%d: split per depth %v", m, split)
		}
	}
	_, f = setupAmalgamated(t, grid2DProblem(41, 41))
	for _, w := range []int{2, 3, 4, 8} {
		split := checkWindows(t, "GRID2D-41", f, w, 1, 30)
		if split[0] == 0 || (w >= 4 && split[1] == 0) {
			t.Fatalf("GRID2D-41 workers=%d grain=1 m=30: split per depth %v", w, split)
		}
	}
	for _, side := range []int{63, 127, 255} {
		_, f := setupAmalgamated(t, grid2DProblem(side, side))
		if _, caps, _ := partition(f.Sym, 0, 2); side == 63 && caps[len(caps)-1] != 2 {
			t.Fatalf("GRID2D-63 workers=2: the root's window cap is %d, want 2", caps[len(caps)-1])
		}
		for _, m := range []int{1, 8, 16, 30, 33} {
			if split := checkWindows(t, fmt.Sprintf("GRID2D-%d", side), f, 2, 0, m); len(split) > 0 {
				t.Fatalf("GRID2D-%d workers=2 m=%d: split %v", side, m, split)
			}
		}
	}
}
