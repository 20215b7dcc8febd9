package registry

import (
	"bytes"
	"errors"
	"fmt"
	"regexp"
	"strconv"

	"sptrsv/internal/chol"
	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// A Source builds one served matrix: the permuted matrix and its numeric
// Cholesky factor, whose Sym is the matrix's symbolic analysis. It runs
// on the registry's background build goroutine and may be arbitrarily
// expensive (ordering → symbolic analysis → numeric factorization); it
// must be side-effect free so a retry after failure or eviction is safe.
type Source func() (*sparse.SymCSC, *chol.Factor, error)

// maxMeshDim bounds generated-mesh dimensions accepted from the
// network: a 4096² grid is a ~16M-row factorization — beyond anything
// this daemon should build on demand.
const maxMeshDim = 4096

// PreparedSource serves a matrix that is already permuted and analysed
// (ordering and symbolic analysis done): the Source performs only the
// numeric factorization. It lets a caller that has run the set-up — a
// command-line tool, a test — stand the matrix up behind a registry
// without re-running it.
func PreparedSource(a *sparse.SymCSC, sym *symbolic.Factor) Source {
	return func() (*sparse.SymCSC, *chol.Factor, error) {
		f, err := chol.Factorize(a, sym)
		if err != nil {
			return nil, nil, err
		}
		return a, f, nil
	}
}

// prepare is every other Source's build: the shared set-up rule
// (symbolic.Prepare), then the numeric factorization.
func prepare(a *sparse.SymCSC, g *mesh.Geometry) (*sparse.SymCSC, *chol.Factor, error) {
	ap, sym := symbolic.Prepare(a, g)
	return PreparedSource(ap, sym)()
}

// Spec names a generated matrix: exactly one field is set. It is the one
// grammar behind the daemon's JSON ingest body (the tags are its field
// names) and its -preload flag, and behind spdsolve's matrix flags; each
// front end only tokenises into it.
type Spec struct {
	Grid2D  string `json:"grid2d,omitempty"`  // "NXxNY": 5-point Laplacian
	Cube    int    `json:"cube,omitempty"`    // side: 7-point Laplacian
	Problem string `json:"problem,omitempty"` // suite problem name (internal/mesh)
}

// Mesh generates the spec's mesh problem.
func (s Spec) Mesh() (mesh.Problem, error) {
	gen, err := s.resolve()
	if err != nil {
		return mesh.Problem{}, err
	}
	return gen(), nil
}

// Source checks the spec now — a malformed ingest fails at once, not
// inside a background build — and returns the Source that generates,
// prepares and factorizes its problem.
func (s Spec) Source() (Source, error) {
	gen, err := s.resolve()
	if err != nil {
		return nil, err
	}
	return func() (*sparse.SymCSC, *chol.Factor, error) {
		prob := gen()
		return prepare(prob.A, prob.Geom)
	}, nil
}

// resolve validates the spec and returns its problem's generator.
// Generated meshes are built only when the generator runs, so a large
// ingest is built on the registry's goroutine rather than in the caller.
func (s Spec) resolve() (func() mesh.Problem, error) {
	set := 0
	for _, on := range []bool{s.Grid2D != "", s.Cube > 0, s.Problem != ""} {
		if on {
			set++
		}
	}
	if set != 1 {
		return nil, errors.New("registry: matrix spec wants exactly one of grid2d, cube, problem")
	}
	switch {
	case s.Grid2D != "":
		nx, ny, err := parseGrid2D(s.Grid2D)
		if err != nil {
			return nil, err
		}
		if nx > maxMeshDim || ny > maxMeshDim {
			return nil, fmt.Errorf("registry: bad grid2d size %dx%d (want 2..%d per side)", nx, ny, maxMeshDim)
		}
		return func() mesh.Problem {
			return mesh.Problem{
				Name: fmt.Sprintf("GRID2D-%dx%d", nx, ny), PaperRef: "custom",
				A: mesh.Grid2D(nx, ny), Geom: mesh.Grid2DGeometry(nx, ny),
			}
		}, nil
	case s.Cube > 0:
		n := s.Cube
		if n < 2 || n > 256 {
			return nil, fmt.Errorf("registry: bad cube side %d (want 2..256)", n)
		}
		return func() mesh.Problem {
			return mesh.Problem{
				Name: fmt.Sprintf("CUBE-%d", n), PaperRef: "custom",
				A: mesh.Grid3D(n, n, n), Geom: mesh.Grid3DGeometry(n, n, n),
			}
		}, nil
	default:
		prob, err := mesh.ByName(s.Problem)
		if err != nil {
			return nil, err
		}
		return func() mesh.Problem { return prob }, nil
	}
}

var grid2DSpec = regexp.MustCompile(`^([0-9]+)[xX]([0-9]+)$`)

// parseGrid2D parses the "NXxNY" spelling of a 2-D grid size. The whole
// string must match and both sides must be at least 2.
func parseGrid2D(spec string) (nx, ny int, err error) {
	m := grid2DSpec.FindStringSubmatch(spec)
	if m != nil {
		if nx, err = strconv.Atoi(m[1]); err == nil {
			ny, err = strconv.Atoi(m[2])
		}
	}
	if m == nil || err != nil || nx < 2 || ny < 2 {
		return 0, 0, fmt.Errorf("registry: bad grid2d %q (want NXxNY, both sides at least 2)", spec)
	}
	return nx, ny, nil
}

// HarwellBoeingSource builds a matrix from Harwell-Boeing RSA text
// (graph nested dissection — files carry no geometry). The data is
// parsed eagerly so malformed uploads fail at ingest time, not inside a
// background build.
func HarwellBoeingSource(data []byte) (Source, error) {
	a, err := sparse.ReadHarwellBoeing(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("registry: harwell-boeing: %w", err)
	}
	return func() (*sparse.SymCSC, *chol.Factor, error) { return prepare(a, nil) }, nil
}
