package native

import (
	"fmt"

	"sptrsv/internal/dist"
)

// This file is the kernel-dispatch layer: the public Kernel mode selecting
// a kernel family (Options.Kernel), the internal kernelID naming one of
// the four sweep shapes, the per-supernode selection precomputed at
// NewSolver/SolveInto time, and the switch that routes a task to its
// kernel. Each kernel exists once, generic over the factor element
// type (kernels.go, kernels_tiled.go); the solver's Precision picks the
// value plane, and with it the instantiation, at the dispatch entry — a
// concrete kernel is a shape × a precision, and nothing lists the
// product.
//
// Every kernel performs exactly the same floating-point operations in the
// same per-column order as the simulator's p=1 pipeline, so dispatch —
// like Grain — affects speed only: within one precision the solution is
// bitwise identical for every mode.

// Kernel selects the numeric kernel family of a Solver (Options.Kernel).
// The zero value is KernelAuto — shape-aware per-supernode dispatch —
// which is safe as the default because every kernel is bitwise identical.
type Kernel int

const (
	// KernelAuto picks a concrete kernel per supernode from its trapezoid
	// shape and the RHS width: the flat single-RHS kernels at m==1, the
	// generic multi-RHS kernels below one full tile (m < 4) and above the
	// wide-RHS cutover (m > 24, where streaming the panel once beats
	// re-reading it per tile), and the tiled register-blocked kernels —
	// with row-strip cache blocking on tall trapezoids — in between. The
	// default.
	KernelAuto Kernel = iota
	// KernelLegacy forces the pre-tiling kernels (flat single-RHS and
	// generic multi-RHS with runtime-width inner loops) everywhere — the
	// baseline side of the kernel shoot-out.
	KernelLegacy
	// KernelTiled forces the tiled kernels for every multi-RHS solve,
	// including widths below one full tile where only the scalar tail
	// runs. Single-RHS solves still use the flat kernels: with one column
	// there is nothing to tile.
	KernelTiled
)

func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelLegacy:
		return "legacy"
	case KernelTiled:
		return "tiled"
	}
	return fmt.Sprintf("kernel(%d)", int(k))
}

// ParseKernel parses the command-line/ingest spelling of a Kernel.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "auto":
		return KernelAuto, nil
	case "legacy":
		return KernelLegacy, nil
	case "tiled":
		return KernelTiled, nil
	}
	return 0, fmt.Errorf("native: unknown kernel %q (want auto | legacy | tiled)", s)
}

// kernelID names one sweep shape — the value the per-supernode dispatch
// table stores. Which value plane the sweep reads is the solver's
// Precision, not part of the id.
type kernelID uint8

const (
	// kidFlat1: the m==1 flat-vector kernels (kernels.go), no inner RHS
	// loop at all. Every mode dispatches here at m==1.
	kidFlat1 kernelID = iota
	// kidGenericM: the multi-RHS kernels with runtime-width inner loops
	// over hoisted row subslices (kernels.go).
	kidGenericM
	// kidTiled: RHS columns in fixed tiles of tileW with the four
	// accumulators in locals, plus a scalar tail (kernels_tiled.go).
	kidTiled
	// kidTiledTall: kidTiled plus row-strip cache blocking of the
	// below-diagonal rectangle, for trapezoids tall enough that one
	// column sweep would evict the panel strip from cache.
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
// In Stats it holds the static dispatch census for one sweep at the
// current RHS width; Solver.KernelTotals accumulates it across solves
// (both sweeps) for the serving layer's metrics.
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

const (
	// tileW is the RHS tile width of the register-blocked kernels: four
	// column accumulators live in locals, so the compiler keeps them in
	// registers across the row loop instead of re-loading a runtime-width
	// slice element per iteration.
	tileW = 4
	// tallStrip is the row-strip height of the cache-blocked tall
	// kernels: one strip of the RHS tile is strip×tileW×8 ≈ 8 KiB,
	// leaving L1 room for the panel strip streaming past it. Trapezoids
	// whose below-diagonal rectangle exceeds one strip dispatch to the
	// tall variants.
	tallStrip = 256
	// wideRHS is auto's upper cutover back to the generic kernels: the
	// tiled kernels re-stream each supernode's panel once per tile
	// (m/tileW passes), while the generic kernels stream it once and
	// iterate all m columns per element. Measured on the shoot-out
	// problems the re-streaming cost overtakes the register win between
	// m = 16 (tiled ahead) and m = 30 (legacy ahead), so auto switches
	// back above 24.
	wideRHS = 24
)

// runKernel executes supernode s's sweep for phase with the kernel shape
// the dispatch table holds for it, reading the value plane panels: the
// caller picks the plane from the solver's precision, and with it the
// instantiation. w is the worker whose arena scratch the buffered
// backward kernels accumulate in.
func runKernel[F float32 | float64](sv *Solver, panels [][]F, phase TaskPhase, s, w int) error {
	k := sv.kernels[s]
	if phase == ForwardPhase {
		switch k {
		case kidFlat1:
			return forwardSupernode1(sv, panels, s)
		case kidGenericM:
			return forwardSupernodeM(sv, panels, s)
		case kidTiled:
			return forwardSupernodeTiled(sv, panels, s)
		default:
			return forwardSupernodeTiledTall(sv, panels, s)
		}
	}
	switch k {
	case kidFlat1:
		return backwardSupernode1(sv, panels, s)
	case kidGenericM:
		return backwardSupernodeM(sv, panels, s, w)
	case kidTiled:
		return backwardSupernodeTiled(sv, panels, s)
	default:
		return backwardSupernodeTiledTall(sv, panels, s, w)
	}
}

// chooseKernelID picks the kernel shape for one supernode trapezoid
// (height ns × width t) at RHS width m under mode. At m==1 every mode
// shares the flat-vector kernels — there is nothing to tile, so the
// single-RHS path pays no dispatch tax. Auto falls back to the generic
// kernels below one full tile (m = 2, 3), where a tail-only "tiled" run
// would re-stream the panel once per column for no register reuse, and
// above wideRHS, where re-streaming the panel per tile costs more than
// the register reuse saves.
func chooseKernelID(mode Kernel, ns, t, m int) kernelID {
	if m == 1 {
		return kidFlat1
	}
	switch mode {
	case KernelLegacy:
		return kidGenericM
	case KernelAuto:
		if m < tileW || m > wideRHS {
			return kidGenericM
		}
	}
	if ns-t > tallStrip {
		return kidTiledTall
	}
	return kidTiled
}

// snShape is the per-supernode kernel geometry that depends only on the
// factor shape, precomputed once at NewSolver time (it used to be
// recomputed inside every backward task).
type snShape struct {
	// bsz is the backward partial-sum block width — the simulator's p=1
	// blocking, dist.AdaptiveBlock(ns, 1, b).
	bsz int
	// strip is the row-strip height the tall kernels block the
	// below-diagonal rectangle with: AdaptiveBlock balances the strips
	// so the last one is never a sliver.
	strip int
}

// buildShapes precomputes snShape for every supernode (NewSolver time).
func (sv *Solver) buildShapes() {
	sym := sv.F.Sym
	sv.shape = make([]snShape, sym.NSuper)
	sv.kernels = make([]kernelID, sym.NSuper)
	for s := 0; s < sym.NSuper; s++ {
		ns := sym.Height(s)
		below := ns - sym.Width(s)
		strip := 1
		if below > 0 {
			strip = dist.AdaptiveBlock(below, (below+tallStrip-1)/tallStrip, tallStrip)
		}
		sv.shape[s] = snShape{
			bsz:   dist.AdaptiveBlock(ns, 1, sv.b),
			strip: strip,
		}
	}
}

// buildDispatch recomputes the per-supernode kernel table and its census
// for RHS width m. arena.ensure calls it exactly when the width changes,
// so the steady state costs nothing and the hot path reads sv.kernels[s]
// only.
func (sv *Solver) buildDispatch(m int) {
	sym := sv.F.Sym
	var counts KernelTasks
	for s := 0; s < sym.NSuper; s++ {
		k := chooseKernelID(sv.kernel, sym.Height(s), sym.Width(s), m)
		sv.kernels[s] = k
		counts[kernelSlot(k, sv.precision)]++
	}
	sv.kernelCounts = counts
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
