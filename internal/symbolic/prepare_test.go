package symbolic

import (
	"runtime"
	"strconv"
	"testing"

	"sptrsv/internal/mesh"
	"sptrsv/internal/order"
	"sptrsv/internal/sparse"
)

// prepareProblem is one set-up input of the benchmark and the allocation
// test: a generator and the geometry that goes with it.
type prepareProblem struct {
	name string
	gen  func() *sparse.SymCSC
	geom *mesh.Geometry
}

func gridProblem(side int) prepareProblem {
	return prepareProblem{name: "GRID2D-" + strconv.Itoa(side),
		gen:  func() *sparse.SymCSC { return mesh.Grid2D(side, side) },
		geom: mesh.Grid2DGeometry(side, side)}
}

func cubeProblem(side int) prepareProblem {
	return prepareProblem{name: "CUBE-" + strconv.Itoa(side),
		gen:  func() *sparse.SymCSC { return mesh.Grid3D(side, side, side) },
		geom: mesh.Grid3DGeometry(side, side, side)}
}

// TestPrepareAllocsIndependentOfSize pins that set-up allocates once per
// output array, not once per supernode, merge, dissection level or growth
// step: the same count on a small and a large problem of each class.
func TestPrepareAllocsIndependentOfSize(t *testing.T) {
	allocs := func(p prepareProblem) float64 {
		a := p.gen()
		// The first collection after the earlier tests of the package
		// makes a few allocations of its own (8 when it fell inside a
		// GRID2D-31 run); collect once outside the count.
		runtime.GC()
		return testing.AllocsPerRun(3, func() { Prepare(a, p.geom) })
	}
	for _, pair := range [][2]prepareProblem{
		{gridProblem(31), gridProblem(127)},
		{cubeProblem(9), cubeProblem(17)},
	} {
		if small, large := allocs(pair[0]), allocs(pair[1]); small != large {
			t.Errorf("Prepare allocates %v objects on %s but %v on %s",
				small, pair[0].name, large, pair[1].name)
		}
	}
}

// BenchmarkPrepare times set-up stage by stage on the benchmark's two
// problem classes: the mesh generator, geometric nested dissection, the
// permutation by it, Analyze, Amalgamate, and the whole chain (mesh then
// Prepare).
func BenchmarkPrepare(b *testing.B) {
	for _, p := range []prepareProblem{gridProblem(255), cubeProblem(25)} {
		a := p.gen()
		perm := order.NestedDissectionGeom(a, p.geom)
		ap := a.PermuteSym(perm)
		f, _, _ := Analyze(ap)
		for _, st := range []struct {
			name string
			run  func()
		}{
			{"mesh", func() { p.gen() }},
			{"NestedDissectionGeom", func() { order.NestedDissectionGeom(a, p.geom) }},
			{"PermuteSym", func() { a.PermuteSym(perm) }},
			{"Analyze", func() { Analyze(ap) }},
			{"Amalgamate", func() { Amalgamate(f, 0.15, 32) }},
			{"whole", func() { Prepare(p.gen(), p.geom) }},
		} {
			b.Run(p.name+"/"+st.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					st.run()
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
			})
		}
	}
}
