package native

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"sptrsv/internal/mesh"
)

// perturbation returns a TaskHook that delays each supernode by an amount
// drawn from (seed, phase, supernode) — a yield, a spin, a short sleep or
// nothing — and appends the supernode to *order as it starts. It shuffles
// the schedule without touching production code.
func perturbation(seed uint64, mu *sync.Mutex, order *[]int) TaskHook {
	return func(_ context.Context, p TaskPhase, s int) error {
		h := seed ^ uint64(p)<<40 ^ uint64(s)
		h ^= h >> 33 // splitmix64 finalizer
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 33
		switch h % 8 {
		case 0, 1:
			runtime.Gosched()
		case 2, 3:
			acc := 0
			for i := 0; i < int(h>>8%4096); i++ {
				acc += i
			}
			if acc < 0 {
				return errors.New("spin overflowed")
			}
		case 4:
			time.Sleep(time.Duration(h>>8%50) * time.Microsecond)
		}
		mu.Lock()
		*order = append(*order, int(p)<<30|s)
		mu.Unlock()
		return nil
	}
}

// TestScheduleIndependence is the schedule-independence property: under
// seeded perturbations of the task timing, every answer at workers
// {2, 3, 4, 8} × grain {1, derived, ∞} × NRHS {1, 5, 30} × both value
// planes equals the Workers: 1 answer bit for bit. The distinct orders
// in which supernodes started are recorded per plane × NRHS × grain, and
// must number more than one wherever the schedule has more than one task
// — the perturbation has to bite.
func TestScheduleIndependence(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(41, 41))
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	ctx := context.Background()
	for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
		for _, m := range []int{1, 5, 30} {
			b := mesh.RandomRHS(f.Sym.N, m, int64(m))
			want, _, err := NewSolver(f, Options{Workers: 1, Precision: prec}).SolveCtx(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []int{1, 0, math.MaxInt} {
				orders := map[uint64]bool{}
				parallel := false
				for _, w := range []int{2, 3, 4, 8} {
					for seed := 0; seed < seeds; seed++ {
						var mu sync.Mutex
						var order []int
						sv := NewSolver(f, Options{Workers: w, grain: g, Precision: prec,
							TaskHook: perturbation(uint64(seed*1000+w), &mu, &order)})
						x, _, err := sv.SolveCtx(ctx, b)
						sv.Close()
						label := fmt.Sprintf("%s m=%d grain=%s workers=%d seed=%d", prec, m, grainName(g), w, seed)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !slices.Equal(x.Data, want.Data) {
							t.Fatalf("%s: answer differs bitwise from Workers: 1", label)
						}
						parallel = parallel || sv.Tasks() > 1
						h := fnv.New64a()
						fmt.Fprint(h, order)
						orders[h.Sum64()] = true
					}
				}
				if parallel && len(orders) < 2 {
					t.Errorf("%s m=%d grain=%s: one start order across every run — the perturbation did not bite",
						prec, m, grainName(g))
				}
				t.Logf("%s m=%d grain=%s: %d distinct start orders", prec, m, grainName(g), len(orders))
			}
		}
	}
}
