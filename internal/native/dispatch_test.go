package native

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"sptrsv/internal/chol"
	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// The tests in this file pin the kernel-dispatch layer: the mode parsing,
// the shape heuristic, and — the property the whole layer rests on —
// that every dispatched kernel is bitwise identical to the legacy
// kernels and allocation-free warm, over randomized supernode trapezoid
// shapes (height 1..64 × width 1..16 × NRHS 1..9, so the scalar tail
// widths 1–3 and the full-tile widths are all exercised) plus fixed tall
// shapes that cross the row-strip threshold.

func TestParseKernel(t *testing.T) {
	for _, k := range []Kernel{KernelAuto, KernelLegacy, KernelTiled} {
		got, err := ParseKernel(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKernel(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseKernel("avx512"); err == nil {
		t.Fatal("ParseKernel accepted an unknown kernel")
	}
	if got := Kernel(99).String(); got != "kernel(99)" {
		t.Fatalf("out-of-range String() = %q", got)
	}
}

// TestKernelTaskLabels pins the census labels — the /metrics kernel=
// values and KernelTasks.Map keys — which are derived from shape ×
// precision, not listed.
func TestKernelTaskLabels(t *testing.T) {
	want := []string{"flat1", "generic", "tiled", "tiledtall", "flat1f32", "genericf32", "tiledf32", "tiledtallf32"}
	var got []string
	KernelTasks{}.Each(func(kernel string, _ int64) { got = append(got, kernel) })
	if !slices.Equal(got, want) {
		t.Fatalf("KernelTasks.Each labels = %q, want %q", got, want)
	}
}

func TestChooseKernelID(t *testing.T) {
	cases := []struct {
		mode     Kernel
		ns, t, m int
		want     kernelID
	}{
		// m==1: every mode shares the flat kernels — no single-RHS tax.
		{KernelAuto, 100, 10, 1, kidFlat1},
		{KernelLegacy, 100, 10, 1, kidFlat1},
		{KernelTiled, 100, 10, 1, kidFlat1},
		// legacy forces the generic kernels at any width.
		{KernelLegacy, 100, 10, 16, kidGenericM},
		// auto under one full tile falls back to generic; tiled forces
		// the tiled (tail-only) path.
		{KernelAuto, 100, 10, 3, kidGenericM},
		{KernelTiled, 100, 10, 3, kidTiled},
		// above the wide-RHS cutover auto streams the panel once through
		// the generic kernels; forced tiled still tiles.
		{KernelAuto, 100, 10, wideRHS, kidTiled},
		{KernelAuto, 100, 10, wideRHS + 1, kidGenericM},
		{KernelAuto, 100, 10, 30, kidGenericM},
		{KernelTiled, 100, 10, 30, kidTiled},
		// at or above a full tile both pick tiled, tall when the
		// below-diagonal rectangle exceeds one row strip.
		{KernelAuto, 100, 10, 4, kidTiled},
		{KernelTiled, 40, 40, 8, kidTiled},
		{KernelAuto, tallStrip + 20, 10, 8, kidTiledTall},
		{KernelTiled, tallStrip + 20, 10, 8, kidTiledTall},
		{KernelAuto, tallStrip + 10, 10, 8, kidTiled}, // below == tallStrip exactly
	}
	for _, c := range cases {
		if got := chooseKernelID(c.mode, c.ns, c.t, c.m); got != c.want {
			t.Errorf("chooseKernelID(%s, ns=%d, t=%d, m=%d) = %s, want %s",
				c.mode, c.ns, c.t, c.m, kernelSlotNames[got], kernelSlotNames[c.want])
		}
	}
}

// trapezoidFactor builds and factorizes a matrix whose leading supernode
// is exactly a height×width trapezoid: the leading `width` columns are
// dense among themselves and connected to the first `below` rows of a
// trailing dense block of size below+2 (so the leading columns merge
// into one supernode and never amalgamate into the trailing one). With
// below == 0 the leading block is a detached root supernode.
func trapezoidFactor(t *testing.T, rng *rand.Rand, height, width int) *chol.Factor {
	t.Helper()
	below := height - width
	n := width + below + 2
	tr := sparse.NewTriplet(n)
	for j := 0; j < n; j++ {
		tr.Add(j, j, float64(n)+10) // diagonal dominance keeps it SPD
	}
	for j := 0; j < width; j++ {
		for i := j + 1; i < width; i++ {
			tr.Add(i, j, 0.5+rng.Float64())
		}
		for k := 0; k < below; k++ {
			tr.Add(width+k, j, 0.5+rng.Float64())
		}
	}
	for j := width; j < n; j++ {
		for i := j + 1; i < n; i++ {
			tr.Add(i, j, 0.5+rng.Float64())
		}
	}
	sym, _, ap := symbolic.Analyze(tr.Compile())
	found := false
	for s := 0; s < sym.NSuper; s++ {
		if sym.Width(s) == width && sym.Height(s) == height {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("height=%d width=%d: analysis produced no %d×%d trapezoid (NSuper=%d)",
			height, width, height, width, sym.NSuper)
	}
	f, err := chol.Factorize(ap, sym)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// dispatchShapes is the shape set the property tests sweep: randomized
// trapezoids in the issue's range plus fixed tall shapes that cross the
// tallStrip threshold (a random height ≤ 64 never does).
func dispatchShapes(rng *rand.Rand) [][2]int {
	shapes := [][2]int{
		{1, 1}, {64, 16}, // corner shapes, always included
		{tallStrip + 44, 4},  // tall: row-strip blocking, several strips
		{2*tallStrip + 8, 9}, // tall with a non-tile-multiple width
	}
	for i := 0; i < 8; i++ {
		h := 1 + rng.Intn(64)
		w := 1 + rng.Intn(16)
		if w > h {
			w = h
		}
		shapes = append(shapes, [2]int{h, w})
	}
	return shapes
}

// float32Representable returns a copy of f's float64 plane with every
// entry rounded through float32, so demoting it loses nothing: both
// precisions then read exactly the same numbers.
func float32Representable(f *chol.Factor) *chol.Factor {
	panels := make([][]float64, len(f.Panels))
	for s, p := range f.Panels {
		panels[s] = make([]float64, len(p))
		for i, v := range p {
			panels[s][i] = float64(float32(v))
		}
	}
	return &chol.Factor{Sym: f.Sym, Panels: panels}
}

// TestKernelDispatchPropertyRandomShapes is the satellite property test:
// for every generated trapezoid shape, NRHS 1..9, and both storage
// precisions, the auto- and force-tiled solves must be bitwise identical
// to the legacy kernels at the same precision (within each precision the
// kernels perform the same floating-point operations in the same order),
// and the dispatch census must cover all eight concrete kernels across
// the sweep. Each shape runs a second time on a factor exactly
// representable in float32, where the two precisions are one algorithm
// over the same numbers: there every float32 answer must be bitwise
// equal to the float64 one.
func TestKernelDispatchPropertyRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var seen KernelTasks
	for _, shape := range dispatchShapes(rng) {
		h, w := shape[0], shape[1]
		full := trapezoidFactor(t, rng, h, w)
		for _, exact := range []bool{false, true} {
			f := full
			if exact {
				f = float32Representable(full)
			}
			for m := 1; m <= 9; m++ {
				b := mesh.RandomRHS(f.Sym.N, m, int64(h*100+w*10+m))
				var want64 *sparse.Block
				for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
					legacy := NewSolver(f, Options{Workers: 1, Kernel: KernelLegacy, Precision: prec})
					want, _, err := legacy.SolveCtx(context.Background(), b)
					if err != nil {
						t.Fatal(err)
					}
					legacy.Close()
					if prec == PrecisionFloat64 {
						want64 = want
					} else if exact {
						if !slices.Equal(want.Data, want64.Data) {
							t.Fatalf("shape %d×%d m=%d float32-representable factor: legacy float32 answer differs bitwise from float64", h, w, m)
						}
						want = want64
					}
					for _, kern := range []Kernel{KernelAuto, KernelTiled} {
						for _, workers := range []int{1, 3} {
							sv := NewSolver(f, Options{Workers: workers, Kernel: kern, Precision: prec})
							x, st, err := sv.SolveCtx(context.Background(), b)
							if err != nil {
								t.Fatal(err)
							}
							for i, v := range x.Data {
								if v != want.Data[i] {
									t.Fatalf("shape %d×%d m=%d kernel=%s workers=%d precision=%s exact=%v: entry %d differs bitwise from legacy",
										h, w, m, kern, workers, prec, exact, i)
								}
							}
							for k := 0; k < len(seen); k++ {
								seen[k] += st.KernelTasks[k]
							}
							sv.Close()
						}
					}
				}
			}
		}
	}
	for k := 0; k < len(seen); k++ {
		if seen[k] == 0 {
			t.Errorf("kernel %s never dispatched across the shape sweep", kernelSlotNames[k])
		}
	}
}

// TestKernelDispatchZeroAllocs pins 0 allocs/op warm for the dispatched
// kernels, including the tall row-strip variants (whose accumulator tile
// comes from the arena scratch, not a per-block make).
func TestKernelDispatchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct {
		h, w, m, workers int
		kern             Kernel
	}{
		{64, 16, 5, 1, KernelAuto},            // tiled + tail
		{64, 16, 3, 1, KernelTiled},           // forced tail-only
		{tallStrip + 44, 4, 8, 1, KernelAuto}, // tall row strips
		{tallStrip + 44, 4, 8, 3, KernelAuto}, // tall through the pool
	} {
		f := trapezoidFactor(t, rng, tc.h, tc.w)
		sv := NewSolver(f, Options{Workers: tc.workers, Kernel: tc.kern})
		b := mesh.RandomRHS(f.Sym.N, tc.m, 2)
		x := mesh.RandomRHS(f.Sym.N, tc.m, 0)
		ctx := context.Background()
		for i := 0; i < 2; i++ { // arena sizing + pool spawn
			if _, err := sv.SolveInto(ctx, b, x); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if _, err := sv.SolveInto(ctx, b, x); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("shape %d×%d m=%d kernel=%s workers=%d: %.0f allocs per warm SolveInto, want 0",
				tc.h, tc.w, tc.m, tc.kern, tc.workers, allocs)
		}
		sv.Close()
	}
}

// TestKernelTotalsAccumulate pins the serving-layer counter contract:
// totals accumulate 2× the per-sweep census per solve (both sweeps) and
// re-dispatch when the RHS width changes.
func TestKernelTotalsAccumulate(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(17, 13))
	sv := NewSolver(f, Options{Workers: 1})
	defer sv.Close()
	ns := int64(f.Sym.NSuper)
	if got := sv.KernelTotals().Total(); got != 0 {
		t.Fatalf("fresh solver reports %d kernel tasks", got)
	}
	b1 := mesh.RandomRHS(f.Sym.N, 1, 1)
	b8 := mesh.RandomRHS(f.Sym.N, 8, 1)
	if _, _, err := sv.SolveCtx(context.Background(), b1); err != nil {
		t.Fatal(err)
	}
	tot := sv.KernelTotals()
	if tot[kidFlat1] != 2*ns || tot.Total() != 2*ns {
		t.Fatalf("after one m=1 solve: totals %v, want %d flat1 only", tot.Map(), 2*ns)
	}
	if _, _, err := sv.SolveCtx(context.Background(), b8); err != nil {
		t.Fatal(err)
	}
	tot = sv.KernelTotals()
	if tot[kidFlat1] != 2*ns || tot.Total() != 4*ns {
		t.Fatalf("after m=1 and m=8 solves: totals %v, want %d flat1 + %d tiled-family", tot.Map(), 2*ns, 2*ns)
	}
	if tot[kidTiled]+tot[kidTiledTall] != 2*ns {
		t.Fatalf("m=8 auto solve dispatched %v, want the tiled family for every supernode", tot.Map())
	}
}
