package dense

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkPartialCholesky times PartialCholesky on the largest front
// shapes of the two engine benchmark matrices — CUBE-25's top fronts
// (1069×1069, 925×300, 744×144, 648×216) and GRID2D-255's (509×509), as
// order n × pivots t — and reports GFLOP/s, counting Σ_{j<t} (n−j)² flops
// per front, the factorization benchmark's measure of front work. The
// fronts are diagonally dominant random matrices, restored from a copy
// outside the timed region before every iteration.
func BenchmarkPartialCholesky(b *testing.B) {
	for _, s := range []struct{ n, t int }{{1069, 1069}, {925, 300}, {744, 144}, {648, 216}, {509, 509}} {
		b.Run(fmt.Sprintf("%dx%d", s.n, s.t), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(s.n)))
			front := make([]float64, s.n*s.n)
			for j := range s.n {
				front[j*s.n+j] = float64(s.n)
				for i := j + 1; i < s.n; i++ {
					front[j*s.n+i] = 2*rng.Float64() - 1
				}
			}
			var flops float64
			for j := range s.t {
				flops += float64(s.n-j) * float64(s.n-j)
			}
			work := make([]float64, len(front))
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				copy(work, front)
				b.StartTimer()
				if err := PartialCholesky(work, s.n, s.n, s.t); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
