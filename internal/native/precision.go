package native

import (
	"fmt"

	"sptrsv/internal/chol"
)

// Precision selects which value plane of the factor a Solver reads
// (Options.Precision). It is the storage precision only: arithmetic is
// always float64, each panel element widened as it is loaded (m = 1) or
// each panel into the worker's arena for the float64 tile (m ≥ 2). So the
// plane buys memory, half the factor's bytes, not time. The zero value is
// PrecisionFloat64, the exact pre-existing behaviour.
//
// Precision deliberately has no "auto": the policy decision (float64 vs
// mixed vs condition-estimate-driven auto) lives in internal/prec, which
// resolves to one of these two concrete storage precisions before the
// solver is built. native stays policy-free.
type Precision int

const (
	// PrecisionFloat64 reads the float64 panels (Factor.Panels). The
	// default; bitwise identical to every pre-precision release.
	PrecisionFloat64 Precision = iota
	// PrecisionFloat32 reads the float32 panels (Factor.Panels32),
	// half the panel memory. Results carry float32 factor error
	// (~κ·2⁻²⁴ relative residual); callers wanting float64 accuracy wrap
	// the solve in iterative refinement (internal/prec).
	PrecisionFloat32
)

func (p Precision) String() string {
	switch p {
	case PrecisionFloat64:
		return "float64"
	case PrecisionFloat32:
		return "float32"
	}
	return fmt.Sprintf("precision(%d)", int(p))
}

// requirePlane makes sure factor f carries the value plane precision p
// reads. The float32 plane is built on demand from a full factor (a
// demoted factor already carries it); a float64 solver over a demoted
// factor cannot be had.
func requirePlane(f *chol.Factor, p Precision) {
	switch p {
	case PrecisionFloat64:
		if f.Panels == nil {
			panic("native: precision float64 but the factor carries only the float32 plane (demoted)")
		}
	case PrecisionFloat32:
		if f.Panels32 == nil {
			f.EnsureFloat32()
		}
	default:
		panic(fmt.Sprintf("native: invalid Options.Precision %v", p))
	}
}
