package registry

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"

	"sptrsv/internal/chol"
	"sptrsv/internal/harness"
	"sptrsv/internal/mesh"
	"sptrsv/internal/order"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// A Source describes how to construct one prepared system. Build runs
// on the registry's background build goroutine and may be arbitrarily
// expensive (it performs the full ordering → symbolic → numeric
// factorization pipeline); it must be side-effect free so a retry after
// failure or eviction is safe.
type Source interface {
	// Describe names the source for logs and status output.
	Describe() string
	// Build produces the prepared problem and its numeric factor.
	Build() (*harness.Prepared, *chol.Factor, error)
}

// maxMeshDim bounds generated-mesh dimensions accepted from the
// network: a 4096² grid is a ~16M-row factorization — beyond anything
// this daemon should build on demand.
const maxMeshDim = 4096

// funcSource adapts a closure to Source.
type funcSource struct {
	desc  string
	build func() (*harness.Prepared, *chol.Factor, error)
}

func (s funcSource) Describe() string { return s.desc }
func (s funcSource) Build() (*harness.Prepared, *chol.Factor, error) {
	return s.build()
}

// factorize finishes any source: numeric factorization of the prepared
// problem.
func factorize(pr *harness.Prepared) (*harness.Prepared, *chol.Factor, error) {
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		return nil, nil, err
	}
	return pr, f, nil
}

var grid2DSpec = regexp.MustCompile(`^([0-9]+)[xX]([0-9]+)$`)

// ParseGrid2D parses the "NXxNY" spelling of a 2-D grid size that the
// ingest JSON and the command-line flags share. The whole string must
// match and both sides must be at least 2.
func ParseGrid2D(spec string) (nx, ny int, err error) {
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

// Grid2DSource builds the nx×ny 5-point Laplacian bench problem.
func Grid2DSource(nx, ny int) (Source, error) {
	if nx < 2 || ny < 2 || nx > maxMeshDim || ny > maxMeshDim {
		return nil, fmt.Errorf("registry: bad grid2d size %dx%d (want 2..%d per side)", nx, ny, maxMeshDim)
	}
	return funcSource{
		desc: fmt.Sprintf("grid2d %dx%d", nx, ny),
		build: func() (*harness.Prepared, *chol.Factor, error) {
			return factorize(harness.Prepare(mesh.Problem{
				Name: fmt.Sprintf("GRID2D-%dx%d", nx, ny), PaperRef: "daemon ingest",
				A: mesh.Grid2D(nx, ny), Geom: mesh.Grid2DGeometry(nx, ny),
			}))
		},
	}, nil
}

// CubeSource builds the n³ 7-point Laplacian bench problem.
func CubeSource(n int) (Source, error) {
	if n < 2 || n > 256 {
		return nil, fmt.Errorf("registry: bad cube side %d (want 2..256)", n)
	}
	return funcSource{
		desc: fmt.Sprintf("cube %d", n),
		build: func() (*harness.Prepared, *chol.Factor, error) {
			return factorize(harness.Prepare(mesh.Problem{
				Name: fmt.Sprintf("CUBE-%d", n), PaperRef: "daemon ingest",
				A: mesh.Grid3D(n, n, n), Geom: mesh.Grid3DGeometry(n, n, n),
			}))
		},
	}, nil
}

// PreparedSource wraps an already-prepared problem (ordering and
// symbolic analysis done): Build performs only the numeric
// factorization. It lets a caller that holds a harness.Prepared — a
// command-line tool, a test — stand the problem up behind a registry
// without re-running the analysis pipeline.
func PreparedSource(pr *harness.Prepared) Source {
	return funcSource{
		desc: "prepared " + pr.Name,
		build: func() (*harness.Prepared, *chol.Factor, error) {
			return factorize(pr)
		},
	}
}

// SuiteSource builds a problem from the standard suite by name.
func SuiteSource(name string) (Source, error) {
	if _, err := mesh.ByName(name); err != nil {
		return nil, err
	}
	return funcSource{
		desc: "suite " + name,
		build: func() (*harness.Prepared, *chol.Factor, error) {
			prob, err := mesh.ByName(name)
			if err != nil {
				return nil, nil, err
			}
			return factorize(harness.Prepare(prob))
		},
	}, nil
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
	return funcSource{
		desc: fmt.Sprintf("harwell-boeing n=%d", a.N),
		build: func() (*harness.Prepared, *chol.Factor, error) {
			perm := order.NestedDissectionGraph(a)
			sym, _, ap := symbolic.Analyze(a.PermuteSym(perm))
			sym = symbolic.Amalgamate(sym, 0.15, 32)
			return factorize(&harness.Prepared{
				Name: "hb-upload", PaperRef: "daemon ingest",
				A: ap, Sym: sym,
			})
		},
	}, nil
}
