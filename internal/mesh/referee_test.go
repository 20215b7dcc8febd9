package mesh

import (
	"math"
	"testing"

	"sptrsv/internal/sparse"
)

// The generators below are Grid2D, Grid2D9, Grid3D and Anisotropic2D as
// they stood before they filled their columns directly: every entry
// through a growing Triplet and its counting transpose. Kept as the
// referees the direct fill is held to, bit for bit.

func refGrid2D(nx, ny int) *sparse.SymCSC {
	t := sparse.NewTriplet(nx * ny)
	idx := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			v := idx(x, y)
			t.Add(v, v, 4.0)
			if x+1 < nx {
				t.Add(idx(x+1, y), v, -1.0)
			}
			if y+1 < ny {
				t.Add(idx(x, y+1), v, -1.0)
			}
		}
	}
	return t.Compile()
}

func refGrid2D9(nx, ny int) *sparse.SymCSC {
	t := sparse.NewTriplet(nx * ny)
	idx := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			v := idx(x, y)
			t.Add(v, v, 8.0+2.0)
			for dy := 0; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dy == 0 && dx <= 0 {
						continue
					}
					x2, y2 := x+dx, y+dy
					if x2 < 0 || x2 >= nx || y2 >= ny {
						continue
					}
					t.Add(idx(x2, y2), v, -1.0)
				}
			}
		}
	}
	return t.Compile()
}

func refGrid3D(nx, ny, nz int) *sparse.SymCSC {
	t := sparse.NewTriplet(nx * ny * nz)
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := idx(x, y, z)
				t.Add(v, v, 6.0+1.0)
				if x+1 < nx {
					t.Add(idx(x+1, y, z), v, -1.0)
				}
				if y+1 < ny {
					t.Add(idx(x, y+1, z), v, -1.0)
				}
				if z+1 < nz {
					t.Add(idx(x, y, z+1), v, -1.0)
				}
			}
		}
	}
	return t.Compile()
}

func refAnisotropic2D(nx, ny int, wx, wy float64) *sparse.SymCSC {
	t := sparse.NewTriplet(nx * ny)
	idx := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			v := idx(x, y)
			t.Add(v, v, 2*wx+2*wy+0.1)
			if x+1 < nx {
				t.Add(idx(x+1, y), v, -wx)
			}
			if y+1 < ny {
				t.Add(idx(x, y+1), v, -wy)
			}
		}
	}
	return t.Compile()
}

// sameBits reports where got and want differ: N, ColPtr, RowIdx, or Val
// compared by math.Float64bits, so +0.0 and −0.0 differ.
func sameBits(t *testing.T, name string, got, want *sparse.SymCSC) {
	t.Helper()
	if got.N != want.N || len(got.ColPtr) != len(want.ColPtr) ||
		len(got.RowIdx) != len(want.RowIdx) || len(got.Val) != len(want.Val) {
		t.Fatalf("%s: shape N=%d nnz=%d/%d, want N=%d nnz=%d/%d", name,
			got.N, len(got.RowIdx), len(got.Val), want.N, len(want.RowIdx), len(want.Val))
	}
	for j, p := range want.ColPtr {
		if got.ColPtr[j] != p {
			t.Fatalf("%s: ColPtr[%d] = %d, want %d", name, j, got.ColPtr[j], p)
		}
	}
	for p, i := range want.RowIdx {
		if got.RowIdx[p] != i {
			t.Fatalf("%s: RowIdx[%d] = %d, want %d", name, p, got.RowIdx[p], i)
		}
		if g, w := math.Float64bits(got.Val[p]), math.Float64bits(want.Val[p]); g != w {
			t.Fatalf("%s: Val[%d] bits %#x, want %#x", name, p, g, w)
		}
	}
}

func TestStencilsMatchReferee(t *testing.T) {
	for nx := 1; nx <= 20; nx++ {
		for ny := 1; ny <= 20; ny++ {
			sameBits(t, "Grid2D", Grid2D(nx, ny), refGrid2D(nx, ny))
			sameBits(t, "Grid2D9", Grid2D9(nx, ny), refGrid2D9(nx, ny))
			for _, w := range [][2]float64{{1, 0.05}, {0, 1}, {2.5, 0}, {0, 0}, {-1, 0.3}} {
				sameBits(t, "Anisotropic2D", Anisotropic2D(nx, ny, w[0], w[1]), refAnisotropic2D(nx, ny, w[0], w[1]))
			}
			for nz := 1; nz <= 20; nz++ {
				sameBits(t, "Grid3D", Grid3D(nx, ny, nz), refGrid3D(nx, ny, nz))
			}
		}
	}
	// A zero weight is stored +0.0, as the transpose stores a lone −0.0.
	for _, v := range Anisotropic2D(3, 3, 0, 1).Val {
		if math.Signbit(v) && v == 0 {
			t.Fatal("Anisotropic2D stored −0.0 for a zero weight")
		}
	}
}
