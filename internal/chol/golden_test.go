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

// TestUpdateLayoutPinned pins the update slab's layout — updSlab and the
// FNV-64a of updOff — on the mesh suite at every worker count of
// testWorkers. At one worker the cut is whole trees, every task opens a
// region of its own, and the values are the ones newPlan computed before
// the layout moved into taskdag.Subtrees.Stack (commit 424f309). At more
// workers a supernode above the cut continues its first child's region
// instead of opening one, so the slab must also stay within the
// region-per-task slab of that commit (old).
func TestUpdateLayoutPinned(t *testing.T) {
	type layout struct {
		slab, old int
		hash      uint64
	}
	want := map[string][3]layout{
		"GRID2D-127":    {{75486, 75486, 0xd5d6d79d0fd124cc}, {264154, 411546, 0x684757ff7456fa52}, {303697, 503292, 0x15848ee7514dae94}},
		"SHELL-32x32x4": {{74224, 74224, 0x13e8da4418ea67e4}, {207168, 318528, 0xe3f052be297d6a2f}, {262464, 442080, 0x32629d8a679eb1a2}},
		"GRID2D9-96":    {{45219, 45219, 0x66451ae243540d4b}, {168979, 266247, 0x0fc8ffbc1ac524fb}, {191948, 312361, 0xeec09e92277032ed}},
		"CUBE-20":       {{502425, 502425, 0x47bf71a190cafd86}, {1074010, 1902562, 0x38c91860f10e0f70}, {1140586, 2017702, 0x7c79c1008bb53e38}},
		"ANISO-160x80":  {{55730, 55730, 0x03f68e3da604ec97}, {191361, 307243, 0x4f2d0aa60b5acc4d}, {247917, 417398, 0x7e2951f8cdfba2e9}},
	}
	for _, p := range mesh.Suite() {
		ap, sym := symbolic.Prepare(p.A, p.Geom)
		for i, w := range testWorkers {
			pl, err := newPlan(ap, sym, w)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var b [8]byte
			for _, o := range pl.updOff {
				binary.LittleEndian.PutUint64(b[:], uint64(o))
				h.Write(b[:])
			}
			want := want[p.Name][i]
			if pl.updSlab != want.slab || h.Sum64() != want.hash || want.slab > want.old {
				t.Errorf("%s, workers %d: updSlab %d, updOff hash %#016x; want %d (at most %d), %#016x",
					p.Name, w, pl.updSlab, h.Sum64(), want.slab, want.old, want.hash)
			}
		}
	}
}
