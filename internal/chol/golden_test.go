package chol

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// panelHash is the FNV-64a of math.Float64bits over every panel entry in
// supernode order: two factors hash alike only if they agree bit for bit.
func panelHash(f *Factor) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range f.Panels {
		for _, v := range p {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestFactorizeGoldenBits pins the factor's bits to the values the
// two-loop implementation produced at commit 026938a (recorded there with
// this same test before the first loop was deleted), so the single
// multifrontal traversal is held to the old Factorize and not only to
// itself. The two wider amalgamated cases were recorded at commit f52161a,
// over PartialCholesky's scalar update loops, before those loops moved
// onto the row primitives of internal/rowops: their fronts are tall enough
// for the vector chunks and every residue of a column length mod 4.
// Each case runs at every worker count of testWorkers: the traversal's
// tasks must not move a bit. amd64 only: other targets may fuse the
// multiply-add in PartialCholesky.
func TestFactorizeGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits were recorded on amd64")
	}
	cases := []struct {
		name       string
		a          *sparse.SymCSC
		g          *mesh.Geometry
		amalgamate bool
		want       uint64
	}{
		{"grid2d-9x9", mesh.Grid2D(9, 9), mesh.Grid2DGeometry(9, 9), false, 0x4648dd9b5ffc0984},
		{"cube-4", mesh.Grid3D(4, 4, 4), mesh.Grid3DGeometry(4, 4, 4), false, 0x1f925c3530c1c232},
		{"grid2d-31-amalgamated", mesh.Grid2D(31, 31), mesh.Grid2DGeometry(31, 31), true, 0x25d724c4eb5549fc},
		{"grid2d-63-amalgamated", mesh.Grid2D(63, 63), mesh.Grid2DGeometry(63, 63), true, 0xdea7717e6a58c45b},
		{"cube-10-amalgamated", mesh.Grid3D(10, 10, 10), mesh.Grid3DGeometry(10, 10, 10), true, 0x3dda386adf9fab94},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sym, ap := ndProblem(tc.a, tc.g)
			if tc.amalgamate {
				sym = symbolic.Amalgamate(sym, 0.15, 32)
			}
			for _, w := range testWorkers {
				f, err := factorize(ap, sym, w)
				if err != nil {
					t.Fatal(err)
				}
				if got := panelHash(f); got != tc.want {
					t.Fatalf("workers %d: panel hash %#016x, want %#016x (factor bits moved)", w, got, tc.want)
				}
			}
		})
	}
}
