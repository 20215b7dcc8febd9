package chol

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// BenchmarkFactorize times a cold factorization (plan and traversal, as
// Factorize does it) of the two engine benchmark matrices at one worker
// and at GOMAXPROCS, and reports the milliseconds per factorization, the
// number of tasks the cut yields, and GFLOP/s counting Σ frontWork flops
// per factorization.
func BenchmarkFactorize(b *testing.B) {
	for _, p := range []struct {
		name string
		side int
		cube bool
	}{{"GRID2D-255", 255, false}, {"CUBE-25", 25, true}} {
		a, g := mesh.Grid2D(p.side, p.side), mesh.Grid2DGeometry(p.side, p.side)
		if p.cube {
			a, g = mesh.Grid3D(p.side, p.side, p.side), mesh.Grid3DGeometry(p.side, p.side, p.side)
		}
		ap, sym := symbolic.Prepare(a, g)
		var flops float64
		for s := range sym.NSuper {
			flops += float64(frontWork(sym, s))
		}
		for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/workers=%d", p.name, w), func(b *testing.B) {
				var tasks int
				for b.Loop() {
					f, err := factorize(ap, sym, w)
					if err != nil {
						b.Fatal(err)
					}
					tasks = f.plan.cut.Tasks()
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
				b.ReportMetric(float64(tasks), "tasks")
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// testWorkers are the worker counts the factorization tests run at,
// beside GOMAXPROCS through Factorize: one (the inline path), an odd
// count, and more workers than the tasks of a small tree.
var testWorkers = []int{1, 3, 8}

// TestFactorizeLeavesNoGoroutines pins that a factorization stops the
// executor's workers before it returns, after a success and after a
// failure alike.
func TestFactorizeLeavesNoGoroutines(t *testing.T) {
	sym, ap := ndProblem(mesh.Grid2D(31, 31), mesh.Grid2DGeometry(31, 31))
	bad := perturb(ap, 1)
	bad.Val[bad.ColPtr[0]] = math.NaN() // column 0's diagonal comes first
	// Goroutines left by earlier tests may still be exiting: the baseline
	// is the count once it has held for 20 ms.
	base := runtime.NumGoroutine()
	for stable := 0; stable < 20; {
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n == base {
			stable++
		} else {
			base, stable = n, 0
		}
	}
	for _, a := range []*sparse.SymCSC{ap, bad} {
		_, err := factorize(a, sym, 8)
		if (err != nil) != (a == bad) {
			t.Fatalf("factorize: %v", err)
		}
		// A worker counts until it returned from its function; allow it
		// the moment between its last statement and its exit. Only a
		// count that stays above the baseline is a leak.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("after factorize (error %v): %d goroutines, want at most %d", err, n, base)
		}
	}
}

// FuzzFactorize checks the factorization at several worker counts against
// its one-worker run on irregular trees. The bytes pick a pattern family
// at n ≤ 300 — a random graph, disjoint blocks (a forest), a path, an
// arrow (one dense row) or a mesh — ordered by graph nested dissection,
// with or without amalgamation, diagonally dominant SPD values, and
// optionally one unusable pivot (0, −x, NaN or +Inf) in a second value
// set. The factor must be bit for bit the one-worker factor at 2, 3 and 8
// workers; Refactorize to the second value set from each of those factors
// must equal Factorize of it, factor bits or error (same type, same
// message).
func FuzzFactorize(f *testing.F) {
	f.Add([]byte{0, 200, 1, 7, 40, 0})   // random graph
	f.Add([]byte{1, 250, 0, 3, 6, 9, 1}) // disjoint blocks
	f.Add([]byte{2, 255, 1, 1, 0, 2})    // path
	f.Add([]byte{3, 180, 0, 5, 2, 3})    // arrow
	f.Add([]byte{4, 16, 1, 2, 17, 4})    // mesh
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		family, size, amalgamate := next()%5, next(), next()%2 == 1
		rng := rand.New(rand.NewSource(int64(next())))
		a := fuzzPattern(family, size, rng)
		ap, sym := symbolic.PrepareExact(a, nil)
		if amalgamate {
			sym = symbolic.Amalgamate(sym, 0.15, 32)
		}
		one := dominantValues(ap, rng)
		two := dominantValues(ap, rng)
		if poison := next() % 5; poison > 0 {
			col := next() % ap.N
			two.Val[ap.ColPtr[col]] = []float64{0, -1 - rng.Float64(), math.NaN(), math.Inf(1)}[poison-1]
		}
		f1, err := factorize(one, sym, 1)
		if err != nil {
			t.Fatalf("one worker: %v", err)
		}
		want, werr := factorize(two, sym, 1)
		for _, w := range []int{2, 3, 8} {
			fw, err := factorize(one, sym, w)
			if err != nil {
				t.Fatalf("%d workers: %v", w, err)
			}
			requireSameBits(t, fmt.Sprintf("%d workers", w), fw, f1)
			got, gerr := fw.Refactorize(two)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%d workers: Refactorize says %v, one-worker Factorize %v", w, gerr, werr)
			}
			if werr != nil {
				if reflect.TypeOf(gerr) != reflect.TypeOf(werr) || gerr.Error() != werr.Error() {
					t.Fatalf("%d workers: Refactorize says %T %q, one-worker Factorize %T %q", w, gerr, gerr, werr, werr)
				}
				continue
			}
			requireSameBits(t, fmt.Sprintf("Refactorize from %d workers", w), got, want)
		}
	})
}

// fuzzPattern returns a pattern of the given family (see FuzzFactorize)
// with a unit diagonal; size scales n up to 300.
func fuzzPattern(family, size int, rng *rand.Rand) *sparse.SymCSC {
	n := 1 + size*300/256
	if family == 4 { // a mesh of side 2..17
		side := 2 + size%16
		return mesh.Grid2D(side, side)
	}
	tr := sparse.NewTriplet(n)
	for v := 0; v < n; v++ {
		tr.Add(v, v, 1)
	}
	switch family {
	case 0: // a random graph of about 2n edges
		for e := 0; e < 2*n; e++ {
			tr.Add(rng.Intn(n), rng.Intn(n), 1)
		}
	case 1: // disjoint blocks, each a random graph, some dense
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(40))
			for e := 0; e < 3*(hi-lo); e++ {
				tr.Add(lo+rng.Intn(hi-lo), lo+rng.Intn(hi-lo), 1)
			}
			lo = hi
		}
	case 2: // a path in a random order
		p := rng.Perm(n)
		for k := 1; k < n; k++ {
			tr.Add(p[k-1], p[k], 1)
		}
	case 3: // an arrow: one dense row over a sparse random graph
		hub := rng.Intn(n)
		for v := 0; v < n; v++ {
			tr.Add(hub, v, 1)
		}
		for e := 0; e < n/2; e++ {
			tr.Add(rng.Intn(n), rng.Intn(n), 1)
		}
	}
	return tr.Compile()
}

// dominantValues returns a sharing a's pattern with random values making
// it strictly diagonally dominant, so SPD.
func dominantValues(a *sparse.SymCSC, rng *rand.Rand) *sparse.SymCSC {
	val := make([]float64, len(a.Val))
	rowSum := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if i := a.RowIdx[p]; i != j {
				val[p] = 2*rng.Float64() - 1
				rowSum[i] += math.Abs(val[p])
				rowSum[j] += math.Abs(val[p])
			}
		}
	}
	for j := 0; j < a.N; j++ {
		val[a.ColPtr[j]] = rowSum[j] + 1 + rng.Float64() // the diagonal comes first
	}
	return &sparse.SymCSC{N: a.N, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: val}
}
