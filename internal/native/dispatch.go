package native

// This file is the kernel-dispatch layer. There is one sweep kernel per
// direction — the blocked one over the row primitives (kernels.go) — at
// every RHS width. The one width branch left here is the census label:
// m == 1 counts as flat1, anything wider as generic. The solver's
// Precision picks the value plane at the dispatch entry: the panels the
// sweep reads and the plane's m = 1 row primitives.
//
// The kernel performs exactly the same floating-point operations in the
// same per-entry order as the simulator's p=1 pipeline, so within one
// precision the solution is bitwise identical at every width.

import "sptrsv/internal/rowops"

// Kernel is a one-valued stub: no option selects a kernel. The type,
// KernelAuto, Options.Kernel, serve.Config.Kernel and Stats.Kernel
// survive only as names the frozen benchmark/ source spells; the
// benchmark's next revision removes them.
type Kernel int

const KernelAuto Kernel = 0

func (Kernel) String() string { return "auto" }

// kernelID names one sweep shape. Which value plane the sweep reads is
// the solver's Precision, not part of the id.
type kernelID uint8

const (
	// kidFlat1: the census label of the blocked kernels at m == 1, which
	// the frozen benchmark/ requires as native.kernel_tasks.flat1.
	kidFlat1 kernelID = iota
	// kidGenericM: the blocked kernels at every wider m.
	kidGenericM
	// kidTiled and kidTiledTall are never dispatched: the census slots
	// stay because the frozen benchmark/ requires the rows
	// native.kernel_tasks.tiled and .tiledtall; the benchmark's next
	// revision removes them.
	kidTiled
	kidTiledTall

	numKernelIDs // must stay last
)

// numKernelSlots is the width of the per-kernel census: every shape once
// per storage precision, the float64 slots first so that a float64
// solver's slot index is its kernelID.
const numKernelSlots = 2 * int(numKernelIDs)

// kernelSlot is the census slot of shape k on value plane p.
func kernelSlot(k kernelID, p Precision) int {
	return int(p)*int(numKernelIDs) + int(k)
}

// kernelSlotNames are the census labels (KernelTasks.Each/Map keys, the
// /metrics kernel= values): the shape name, suffixed on the float32
// plane.
var kernelSlotNames = func() (names [numKernelSlots]string) {
	shapes := [numKernelIDs]string{
		kidFlat1:     "flat1",
		kidGenericM:  "generic",
		kidTiled:     "tiled",
		kidTiledTall: "tiledtall",
	}
	for k, shape := range shapes {
		names[kernelSlot(kernelID(k), PrecisionFloat64)] = shape
		names[kernelSlot(kernelID(k), PrecisionFloat32)] = shape + "f32"
	}
	return names
}()

// KernelTasks counts supernode executions per concrete kernel variant.
// In Stats it holds the dispatch census for one sweep at the current RHS
// width; Solver.KernelTotals accumulates it across solves (both sweeps)
// for the serving layer's metrics.
type KernelTasks [numKernelSlots]int64

// Each calls fn for every kernel variant in a fixed order, including
// zero-count entries.
func (k KernelTasks) Each(fn func(kernel string, n int64)) {
	for i, n := range k {
		fn(kernelSlotNames[i], n)
	}
}

// Total returns the summed count over all kernel variants.
func (k KernelTasks) Total() int64 {
	var n int64
	for _, c := range k {
		n += c
	}
	return n
}

// Map returns the nonzero counts keyed by kernel name — the allocation
// the zero-alloc solve path avoids by keeping KernelTasks an array.
func (k KernelTasks) Map() map[string]int64 {
	out := make(map[string]int64, numKernelSlots)
	k.Each(func(kernel string, n int64) {
		if n != 0 {
			out[kernel] = n
		}
	})
	return out
}

// kernelFor is the census label of RHS width m: flat1 at one right-hand
// side, generic at every other width. It picks no code.
func kernelFor(m int) kernelID {
	if m == 1 {
		return kidFlat1
	}
	return kidGenericM
}

// runKernel executes supernode s's sweep for phase on the value plane
// panels: the caller picks the plane from the solver's precision, and
// with it the instantiation and the plane's row primitives (by pointer,
// so every argument of the call still fits in registers). w is the
// worker whose front (and, backward, whose scratch) the kernel uses, and
// [k0, k1) the lane window it sweeps.
func runKernel[F float32 | float64](sv *Solver, panels [][]F, rows *rowops.Kernels[F], phase TaskPhase, s, w, k0, k1 int) error {
	if phase == ForwardPhase {
		return forwardSupernodeM(sv, panels, rows, s, w, k0, k1)
	}
	return backwardSupernodeM(sv, panels, rows, s, w, k0, k1)
}

// buildDispatch recomputes the dispatch census for RHS width m: every
// supernode runs kernelFor(m) on the solver's plane. arena.ensure calls
// it exactly when the width changes.
func (sv *Solver) buildDispatch(m int) {
	sv.kernelCounts = KernelTasks{}
	sv.kernelCounts[kernelSlot(kernelFor(m), sv.precision)] = int64(sv.F.Sym.NSuper)
}

// accountKernels folds the current width's dispatch census into the
// solver's cumulative per-kernel totals: one solve executes every
// supernode once per sweep, and there are two sweeps. Counted at solve
// start, so a solve that fails mid-sweep still shows the kernels its
// traffic was dispatched to.
func (sv *Solver) accountKernels() {
	for i, c := range sv.kernelCounts {
		if c != 0 {
			sv.kernelTotals[i].Add(2 * c)
		}
	}
}

// KernelTotals returns the cumulative supernode-execution counts per
// concrete kernel variant over the solver's lifetime (both sweeps of
// every solve). Safe to call concurrently with a solve.
func (sv *Solver) KernelTotals() KernelTasks {
	var out KernelTasks
	for i := range out {
		out[i] = sv.kernelTotals[i].Load()
	}
	return out
}
