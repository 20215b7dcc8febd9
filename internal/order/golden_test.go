package order

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
)

// permHash is the FNV-64a of a permutation, each entry as 8 little-endian
// bytes: two orderings hash alike only if they agree position for position.
func permHash(p []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// twoGrids is two disjoint 3×3 five-point grids inside one 18×18 matrix.
func twoGrids() *sparse.SymCSC {
	tr := sparse.NewTriplet(18)
	for _, base := range []int{0, 9} {
		idx := func(r, c int) int { return base + r*3 + c }
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				tr.Add(idx(r, c), idx(r, c), 4)
				if r+1 < 3 {
					tr.Add(idx(r+1, c), idx(r, c), -1)
				}
				if c+1 < 3 {
					tr.Add(idx(r, c+1), idx(r, c), -1)
				}
			}
		}
	}
	return tr.Compile()
}

// blocks2x2 is the block-diagonal matrix of k coupled pairs: k components
// of two vertices each.
func blocks2x2(k int) *sparse.SymCSC {
	tr := sparse.NewTriplet(2 * k)
	for b := 0; b < k; b++ {
		tr.Add(2*b, 2*b, 4)
		tr.Add(2*b+1, 2*b+1, 4)
		tr.Add(2*b+1, 2*b, -1)
	}
	return tr.Compile()
}

// interleavedPaths is three paths of length 20 whose vertices interleave
// (vertex v lies on path v mod 3), plus three isolated vertices at the
// end: components whose vertex ranges overlap, several too long to emit
// without dissection.
func interleavedPaths() *sparse.SymCSC {
	tr := sparse.NewTriplet(63)
	for v := 0; v < 63; v++ {
		tr.Add(v, v, 4)
		if v+3 < 60 {
			tr.Add(v+3, v, -1)
		}
	}
	return tr.Compile()
}

// TestOrderGoldenHashes pins every nested-dissection ordering to the
// permutation the map-based recursion produced at commit bff6709 (recorded
// there with this same test, before the recursion moved onto stamped
// arrays), so the orders are held to the old code and not only to
// themselves.
func TestOrderGoldenHashes(t *testing.T) {
	cases := []struct {
		name string
		perm func() []int
		want uint64
	}{
		{"geom-grid2d-63", func() []int {
			return NestedDissectionGeom(mesh.Grid2D(63, 63), mesh.Grid2DGeometry(63, 63))
		}, 0x4fa648666c6c1340},
		{"geom-cube-12", func() []int {
			return NestedDissectionGeom(mesh.Grid3D(12, 12, 12), mesh.Grid3DGeometry(12, 12, 12))
		}, 0xdb63affdca9c42c1},
		{"geom-shell-12x12x3", func() []int {
			return NestedDissectionGeom(mesh.Shell(12, 12, 3), mesh.ShellGeometry(12, 12, 3))
		}, 0x9381e3113a3d262d},
		{"graph-grid2d-63", func() []int { return NestedDissectionGraph(mesh.Grid2D(63, 63)) }, 0x0802b1c8ed9da3dc},
		{"graph-cube-12", func() []int { return NestedDissectionGraph(mesh.Grid3D(12, 12, 12)) }, 0x78ac56e7c152c601},
		{"graph-shell-12x12x3", func() []int { return NestedDissectionGraph(mesh.Shell(12, 12, 3)) }, 0xecff1133a1b97c29},
		{"graph-two-grids", func() []int { return NestedDissectionGraph(twoGrids()) }, 0x3bccb3896e633ec4},
		{"graph-random-spd", func() []int { return NestedDissectionGraph(mesh.RandomSPD(600, 6, 7)) }, 0x4faf1232475a2b71},
		{"graph-blocks-2x2", func() []int { return NestedDissectionGraph(blocks2x2(50)) }, 0x610b068d99808fe5},
		{"graph-interleaved-paths", func() []int { return NestedDissectionGraph(interleavedPaths()) }, 0x55359dc6b4e4e33a},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.perm()
			if !sparse.IsPerm(p) {
				t.Fatal("not a permutation")
			}
			if got := permHash(p); got != tc.want {
				t.Fatalf("perm hash %#016x, want %#016x (order moved)", got, tc.want)
			}
		})
	}
}
