package registry

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"sptrsv/internal/harness"
	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
)

// TestIngestMatchesInProcessPrepare pins the premise the benchmark's
// oracle rests on: what a daemon builds from an ingest is bit for bit what
// the in-process set-up (harness.Prepare) builds from the same problem —
// the same permuted matrix, the same supernode partition and row lists.
func TestIngestMatchesInProcessPrepare(t *testing.T) {
	var hb bytes.Buffer
	upload := mesh.RandomSPD(300, 6, 7)
	if err := sparse.WriteHarwellBoeing(&hb, "ingest premise", upload); err != nil {
		t.Fatal(err)
	}
	// The in-process side reads the same bytes the upload carries.
	read, err := sparse.ReadHarwellBoeing(bytes.NewReader(hb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	hbSource, err := HarwellBoeingSource(hb.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		src  func() (Source, error)
		prob mesh.Problem
	}{
		{"grid2d 23x17", Spec{Grid2D: "23x17"}.Source, mesh.Problem{A: mesh.Grid2D(23, 17), Geom: mesh.Grid2DGeometry(23, 17)}},
		{"cube 7", Spec{Cube: 7}.Source, mesh.Problem{A: mesh.Grid3D(7, 7, 7), Geom: mesh.Grid3DGeometry(7, 7, 7)}},
		{"harwell-boeing upload", func() (Source, error) { return hbSource, nil }, mesh.Problem{A: read}},
	} {
		src, err := c.src()
		if err != nil {
			t.Fatal(err)
		}
		a, f, err := src()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := harness.Prepare(c.prob)
		if a.N != want.A.N || !slices.Equal(a.ColPtr, want.A.ColPtr) || !slices.Equal(a.RowIdx, want.A.RowIdx) ||
			!slices.EqualFunc(a.Val, want.A.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Errorf("%s: the ingested matrix differs from the in-process one", c.name)
		}
		if !slices.Equal(f.Sym.Super, want.Sym.Super) || !slices.EqualFunc(f.Sym.Rows, want.Sym.Rows, slices.Equal[[]int]) {
			t.Errorf("%s: the ingested symbolic factor differs from the in-process one", c.name)
		}
	}
}
