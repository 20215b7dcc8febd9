package order

import (
	"testing"
	"testing/quick"

	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
)

func TestNaturalIsIdentity(t *testing.T) {
	p := Natural(5)
	for i, v := range p {
		if v != i {
			t.Fatalf("Natural[%d] = %d", i, v)
		}
	}
}

func TestGeomNDIsPermutation(t *testing.T) {
	a := mesh.Grid2D(17, 13)
	g := mesh.Grid2DGeometry(17, 13)
	p := NestedDissectionGeom(a, g)
	if len(p) != a.N || !sparse.IsPerm(p) {
		t.Fatalf("geometric ND did not return a permutation of %d", a.N)
	}
}

func TestGeomND3D(t *testing.T) {
	a := mesh.Grid3D(7, 6, 5)
	g := mesh.Grid3DGeometry(7, 6, 5)
	p := NestedDissectionGeom(a, g)
	if !sparse.IsPerm(p) {
		t.Fatal("3-D geometric ND not a permutation")
	}
}

func TestGeomNDShell(t *testing.T) {
	a := mesh.Shell(6, 6, 3)
	g := mesh.ShellGeometry(6, 6, 3)
	p := NestedDissectionGeom(a, g)
	if !sparse.IsPerm(p) {
		t.Fatal("shell geometric ND not a permutation")
	}
}

// TestGeomNDSeparatorLast checks the defining nested-dissection property on
// a grid with odd side: the vertical middle line is the top separator, so
// its vertices must occupy the last positions of the ordering.
func TestGeomNDSeparatorLast(t *testing.T) {
	nx, ny := 9, 9
	a := mesh.Grid2D(nx, ny)
	g := mesh.Grid2DGeometry(nx, ny)
	p := NestedDissectionGeom(a, g)
	midX := 4
	sepCount := ny
	tail := p[len(p)-sepCount:]
	for _, v := range tail {
		if g.Coords[2*v] != midX {
			t.Fatalf("vertex %d at tail has x=%d, want separator x=%d",
				v, g.Coords[2*v], midX)
		}
	}
}

func TestGraphNDIsPermutation(t *testing.T) {
	a := mesh.Grid2D(12, 12)
	p := NestedDissectionGraph(a)
	if !sparse.IsPerm(p) {
		t.Fatal("graph ND not a permutation")
	}
}

func TestGraphNDDisconnected(t *testing.T) {
	p := NestedDissectionGraph(twoGrids())
	if !sparse.IsPerm(p) {
		t.Fatal("graph ND on disconnected graph not a permutation")
	}
}

func TestRCMIsPermutation(t *testing.T) {
	a := mesh.Grid2D(10, 7)
	p := RCM(a)
	if !sparse.IsPerm(p) {
		t.Fatal("RCM not a permutation")
	}
}

func TestRCMReducesBandwidth(t *testing.T) {
	// A grid numbered column-major has bandwidth nx when traversed the
	// "wrong" way; RCM must not exceed the natural bandwidth and for a
	// skinny grid should achieve roughly min(nx, ny)+1.
	a := mesh.Grid2D(30, 4)
	bw := func(m *sparse.SymCSC) int {
		b := 0
		for j := 0; j < m.N; j++ {
			for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
				if d := m.RowIdx[p] - j; d > b {
					b = d
				}
			}
		}
		return b
	}
	perm := RCM(a)
	ar := a.PermuteSym(perm)
	if bw(ar) > 10 {
		t.Fatalf("RCM bandwidth = %d, want small (skinny grid)", bw(ar))
	}
}

func TestQuickNDAlwaysPermutation(t *testing.T) {
	f := func(nx8, ny8 uint8, graphBased bool) bool {
		nx := int(nx8%12) + 2
		ny := int(ny8%12) + 2
		a := mesh.Grid2D(nx, ny)
		var p []int
		if graphBased {
			p = NestedDissectionGraph(a)
		} else {
			p = NestedDissectionGeom(a, mesh.Grid2DGeometry(nx, ny))
		}
		return sparse.IsPerm(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
