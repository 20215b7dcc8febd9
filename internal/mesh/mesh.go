// Package mesh generates the model problems used throughout the
// reproduction. The paper's experiments use Harwell-Boeing structural
// matrices (BCSSTK15, BCSSTK31, HSCT-class, CUBE-class, COPTER2), all of
// which are adjacency matrices of two- or three-dimensional neighborhood
// graphs — precisely the class the paper's analysis covers. Those data
// files are proprietary or unavailable, so this package synthesizes SPD
// matrices of the same graph classes and comparable sizes:
//
//   - Grid2D / Grid2D9: 5-point and 9-point 2-D finite-difference Laplacians
//     (2-D neighborhood graphs, the "sparse 2-D" class of the analysis).
//   - Grid3D: 7-point 3-D Laplacians (the CUBE-class "sparse 3-D" problems).
//   - Shell: a 2-D grid with multiple coupled degrees of freedom per node,
//     mimicking the denser rows of structural FE matrices (BCSSTK-class).
//   - Anisotropic variants that skew the stencil weights, changing the
//     numerical values but not the graph class.
//
// All generators return diagonally dominant symmetric matrices, hence SPD.
//
// The fixed-stencil generators (Grid2D, Grid2D9, Grid3D, Anisotropic2D)
// know their nonzero count and emit each column's rows ascending and
// distinct, so they fill the compressed-column arrays directly, each
// allocated once, with the values sparse.Triplet.Compile would store.
// Shell and RandomSPD, whose entries repeat or arrive out of order, go
// through a Triplet.
package mesh

import (
	"fmt"
	"math/rand"

	"sptrsv/internal/sparse"
)

// Grid2D returns the 5-point Laplacian on an nx×ny grid
// (N = nx·ny, SPD, 2-D neighborhood graph).
func Grid2D(nx, ny int) *sparse.SymCSC { return fivePoint(nx, ny, 4.0, -1.0, -1.0) }

// fivePoint is the 5-point stencil on an nx×ny grid with diagonal diag and
// couplings ox to the x-neighbour, oy to the y-neighbour. Column v holds
// v, v+1 and v+nx, ascending.
func fivePoint(nx, ny int, diag, ox, oy float64) *sparse.SymCSC {
	c := newColumns(nx*ny, nx*ny+(nx-1)*ny+nx*(ny-1))
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			v := y*nx + x
			c.add(v, diag)
			if x+1 < nx {
				c.add(v+1, ox)
			}
			if y+1 < ny {
				c.add(v+nx, oy)
			}
			c.end(v)
		}
	}
	return c.a
}

// columns fills a SymCSC column by column, for the fixed-stencil
// generators: their columns come out with ascending, distinct rows, so
// they need neither a Triplet nor its counting transpose. nnz is exact, so
// the arrays are allocated once. Each value is stored as 0.0 + v, as the
// transpose does, so a −0.0 weight is stored as +0.0.
type columns struct{ a *sparse.SymCSC }

func newColumns(n, nnz int) columns {
	nnz = max(nnz, 0) // a grid with an empty side counts −1 edges per line
	return columns{&sparse.SymCSC{N: n, ColPtr: make([]int, n+1),
		RowIdx: make([]int, 0, nnz), Val: make([]float64, 0, nnz)}}
}

func (c columns) add(i int, v float64) {
	c.a.RowIdx = append(c.a.RowIdx, i)
	c.a.Val = append(c.a.Val, 0.0+v)
}

// end closes column j.
func (c columns) end(j int) { c.a.ColPtr[j+1] = len(c.a.RowIdx) }

// Grid2D9 returns the 9-point Laplacian on an nx×ny grid: each interior
// vertex couples to all 8 neighbors. Still a 2-D neighborhood graph, with
// roughly twice the edge density of the 5-point stencil.
func Grid2D9(nx, ny int) *sparse.SymCSC {
	c := newColumns(nx*ny, nx*ny+(nx-1)*ny+(ny-1)*(3*nx-2))
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			v := y*nx + x
			c.add(v, 8.0+2.0)
			// v+1, then v+nx-1, v+nx, v+nx+1: ascending, and the first
			// two are both present only when nx ≥ 3.
			for dy := 0; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dy == 0 && dx <= 0 {
						continue
					}
					x2, y2 := x+dx, y+dy
					if x2 < 0 || x2 >= nx || y2 >= ny {
						continue
					}
					c.add(y2*nx+x2, -1.0)
				}
			}
			c.end(v)
		}
	}
	return c.a
}

// Grid3D returns the 7-point Laplacian on an nx×ny×nz grid
// (N = nx·ny·nz, SPD, 3-D neighborhood graph — the CUBE-class problems).
// Column v holds v, v+1, v+nx and v+nx·ny, ascending.
func Grid3D(nx, ny, nz int) *sparse.SymCSC {
	n := nx * ny * nz
	c := newColumns(n, n+(nx-1)*ny*nz+nx*(ny-1)*nz+nx*ny*(nz-1))
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := (z*ny+y)*nx + x
				c.add(v, 6.0+1.0)
				if x+1 < nx {
					c.add(v+1, -1.0)
				}
				if y+1 < ny {
					c.add(v+nx, -1.0)
				}
				if z+1 < nz {
					c.add(v+nx*ny, -1.0)
				}
				c.end(v)
			}
		}
	}
	return c.a
}

// Shell returns a structural-mechanics-style matrix: an nx×ny grid with
// dof degrees of freedom per grid node; all dofs of a node are mutually
// coupled and coupled to all dofs of the four grid neighbors. This mimics
// the block structure (and the higher row density) of the BCSSTK shell
// matrices while remaining a 2-D neighborhood graph.
func Shell(nx, ny, dof int) *sparse.SymCSC {
	n := nx * ny * dof
	t := sparse.NewTriplet(n)
	node := func(x, y int) int { return (y*nx + x) * dof }
	rng := rand.New(rand.NewSource(int64(nx*1000003 + ny*7919 + dof)))
	couple := func(a, b int) {
		// symmetric dense dof×dof coupling block with random magnitudes
		for i := 0; i < dof; i++ {
			for j := 0; j < dof; j++ {
				if a == b && i < j {
					continue
				}
				v := -0.25 * (1 + 0.5*rng.Float64())
				if a == b && i == j {
					continue // diagonal handled below
				}
				t.Add(a+i, b+j, v)
			}
		}
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			a := node(x, y)
			couple(a, a)
			if x+1 < nx {
				couple(node(x+1, y), a)
			}
			if y+1 < ny {
				couple(node(x, y+1), a)
			}
		}
	}
	// Diagonal dominance: set each diagonal to (sum of |offdiag|) + 1.
	m := t.Compile()
	rowAbs := make([]float64, n)
	for j := 0; j < n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			i := m.RowIdx[p]
			if i != j {
				v := m.Val[p]
				if v < 0 {
					v = -v
				}
				rowAbs[i] += v
				rowAbs[j] += v
			}
		}
	}
	t2 := sparse.NewTriplet(n)
	for j := 0; j < n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			i := m.RowIdx[p]
			if i != j {
				t2.Add(i, j, m.Val[p])
			}
		}
		t2.Add(j, j, rowAbs[j]+1.0)
	}
	return t2.Compile()
}

// Anisotropic2D returns a 5-point stencil with direction-dependent weights
// (wx horizontally, wy vertically): same graph, different numerics.
func Anisotropic2D(nx, ny int, wx, wy float64) *sparse.SymCSC {
	return fivePoint(nx, ny, 2*wx+2*wy+0.1, -wx, -wy)
}

// RandomSPD returns a random sparse SPD matrix: n vertices, roughly
// avgDeg random edges per vertex (plus a Hamiltonian path so the graph is
// connected), with diagonal dominance enforcing positive definiteness.
// Unlike the grid generators it has no geometry, exercising the
// graph-based nested-dissection path.
func RandomSPD(n, avgDeg int, seed int64) *sparse.SymCSC {
	rng := rand.New(rand.NewSource(seed))
	t := sparse.NewTriplet(n)
	deg := make([]float64, n)
	addEdge := func(i, j int) {
		if i == j {
			return
		}
		w := 0.2 + rng.Float64()
		t.Add(i, j, -w)
		deg[i] += w
		deg[j] += w
	}
	for v := 1; v < n; v++ {
		addEdge(v, v-1) // connectivity backbone
	}
	extra := n * (avgDeg - 2) / 2
	for e := 0; e < extra; e++ {
		addEdge(rng.Intn(n), rng.Intn(n))
	}
	for v := 0; v < n; v++ {
		t.Add(v, v, deg[v]+0.5+rng.Float64())
	}
	return t.Compile()
}

// RandomRHS fills an n×m block with reproducible standard-normal values.
func RandomRHS(n, m int, seed int64) *sparse.Block {
	b := sparse.NewBlock(n, m)
	rng := rand.New(rand.NewSource(seed))
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	return b
}

// OnesRHS returns an n×m block of ones (handy for smoke tests).
func OnesRHS(n, m int) *sparse.Block {
	b := sparse.NewBlock(n, m)
	b.Fill(1)
	return b
}

// Geometry records grid coordinates for geometric nested dissection.
type Geometry struct {
	Dim    int   // 2 or 3
	Coords []int // len 2N or 3N: (x,y[,z]) per vertex, vertex-major
	Dof    int   // degrees of freedom per geometric node (>=1)
}

// Grid2DGeometry returns the geometry of Grid2D/Grid2D9/Anisotropic2D.
func Grid2DGeometry(nx, ny int) *Geometry {
	g := &Geometry{Dim: 2, Coords: make([]int, 2*nx*ny), Dof: 1}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			v := y*nx + x
			g.Coords[2*v] = x
			g.Coords[2*v+1] = y
		}
	}
	return g
}

// Grid3DGeometry returns the geometry of Grid3D.
func Grid3DGeometry(nx, ny, nz int) *Geometry {
	g := &Geometry{Dim: 3, Coords: make([]int, 3*nx*ny*nz), Dof: 1}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := (z*ny+y)*nx + x
				g.Coords[3*v] = x
				g.Coords[3*v+1] = y
				g.Coords[3*v+2] = z
			}
		}
	}
	return g
}

// ShellGeometry returns the geometry of Shell: dof vertices share each
// grid node's coordinates.
func ShellGeometry(nx, ny, dof int) *Geometry {
	g := &Geometry{Dim: 2, Coords: make([]int, 2*nx*ny*dof), Dof: dof}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			base := (y*nx + x) * dof
			for d := 0; d < dof; d++ {
				g.Coords[2*(base+d)] = x
				g.Coords[2*(base+d)+1] = y
			}
		}
	}
	return g
}

// Problem bundles a named test matrix with its geometry, mirroring the
// paper's test-suite rows.
type Problem struct {
	Name     string
	PaperRef string // which paper matrix this stands in for
	A        *sparse.SymCSC
	Geom     *Geometry
}

// Suite returns the standard problem suite. The sizes are chosen so the
// whole pipeline (symbolic + numeric factorization + solves across a
// p-sweep) runs in seconds in Go while preserving the 2-D/3-D graph-class
// split of the paper's suite.
func Suite() []Problem {
	return []Problem{
		{Name: "GRID2D-127", PaperRef: "BCSSTK15 (2-D structural, N=3948, nnz(L)=0.49M)",
			A: Grid2D(127, 127), Geom: Grid2DGeometry(127, 127)},
		{Name: "SHELL-32x32x4", PaperRef: "BCSSTK31 (3-D shell, multi-dof, nnz(L)=5.4M)",
			A: Shell(32, 32, 4), Geom: ShellGeometry(32, 32, 4)},
		{Name: "GRID2D9-96", PaperRef: "HSCT-class (denser 2-D FE surface, nnz(L)=2.4M)",
			A: Grid2D9(96, 96), Geom: Grid2DGeometry(96, 96)},
		{Name: "CUBE-20", PaperRef: "CUBE-class (3-D finite difference, nnz(L)=9.9M)",
			A: Grid3D(20, 20, 20), Geom: Grid3DGeometry(20, 20, 20)},
		{Name: "ANISO-160x80", PaperRef: "COPTER2-class (irregular 2-D/3-D FE, nnz(L)=12.6M)",
			A: Anisotropic2D(160, 80, 1.0, 0.05), Geom: Grid2DGeometry(160, 80)},
	}
}

// ByName returns the suite problem with the given name.
func ByName(name string) (Problem, error) {
	for _, p := range Suite() {
		if p.Name == name {
			return p, nil
		}
	}
	return Problem{}, fmt.Errorf("mesh: unknown problem %q", name)
}
