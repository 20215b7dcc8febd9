package native

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sptrsv/internal/chol"
	"sptrsv/internal/mesh"
	"sptrsv/internal/rowops"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// The tests in this file pin the blocked kernel and its dispatch: the
// census labels, and — the property the kernel rests on — that the
// blocked kernel over either body of the row primitives (portable Go,
// AVX2 assembly) is bitwise identical to the straight-line loops it
// replaced and allocation-free warm, over trapezoid shapes covering every
// width mod 4, 0/1/many rows below the triangle, and every RHS width
// 1..33. The primitives' own referee (special values, strides, residues)
// lives with them in internal/rowops.

// TestKernelTaskLabels pins the census labels — the /metrics kernel=
// values and KernelTasks.Map keys — which are derived from shape ×
// precision, not listed. The tiled names are never counted; the frozen
// benchmark requires their rows.
func TestKernelTaskLabels(t *testing.T) {
	want := []string{"flat1", "generic", "tiled", "tiledtall", "flat1f32", "genericf32", "tiledf32", "tiledtallf32"}
	var got []string
	KernelTasks{}.Each(func(kernel string, _ int64) { got = append(got, kernel) })
	if !slices.Equal(got, want) {
		t.Fatalf("KernelTasks.Each labels = %q, want %q", got, want)
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
	if trapezoidSupernode(sym, height, width) < 0 {
		t.Fatalf("height=%d width=%d: analysis produced no %d×%d trapezoid (NSuper=%d)",
			height, width, height, width, sym.NSuper)
	}
	f, err := chol.Factorize(ap, sym)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// trapezoidSupernode returns the first height×width supernode, or -1.
func trapezoidSupernode(sym *symbolic.Factor, height, width int) int {
	for s := 0; s < sym.NSuper; s++ {
		if sym.Width(s) == width && sym.Height(s) == height {
			return s
		}
	}
	return -1
}

// dispatchShapes is the shape set the property tests sweep: widths 1..9
// (every width mod 4, and widths below one forward block) over 0, 1 and
// many rows below the triangle, two tall shapes, and randomized
// trapezoids up to 64×16.
func dispatchShapes(rng *rand.Rand) [][2]int {
	shapes := [][2]int{{64, 16}, {300, 4}, {520, 9}}
	for w := 1; w <= 9; w++ {
		shapes = append(shapes, [2]int{w, w}, [2]int{w + 1, w}, [2]int{w + 7 + w%3, w})
	}
	for i := 0; i < 8; i++ {
		h := 1 + rng.Intn(64)
		w := min(1+rng.Intn(16), h)
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

// referenceForwardM and referenceBackwardM are the multi-RHS sweeps as
// they were before the blocked kernel: one panel column at a time,
// straight down the column, in worker 0's front. The kernel must
// reproduce them bit for bit.
func referenceForwardM[F float32 | float64](sv *Solver, panels [][]F, s int) error {
	sym := sv.F.Sym
	ns, t, j0, m := sym.Height(s), sym.Width(s), sym.Super[s], sv.cur.m
	panel := panels[s]
	v := sv.arena.fronts[0][:ns*m]
	clear(v)
	sv.gatherForwardM(s, t, j0, m, 0, m, v)
	for j := 0; j < t; j++ {
		col := panel[j*ns : (j+1)*ns]
		xj := v[j*m : (j+1)*m]
		piv := float64(col[j])
		if chol.BadPivot(piv) {
			return &BreakdownError{Supernode: s, Column: j0 + j, Pivot: piv}
		}
		inv := 1 / piv
		for c := range xj {
			xj[c] *= inv
		}
		for i := j + 1; i < ns; i++ {
			lij := float64(col[i])
			dst := v[i*m : (i+1)*m]
			for c := range dst {
				dst[c] -= lij * xj[c]
			}
		}
	}
	copy(sv.cur.x.Data[j0*m:(j0+t)*m], v[:t*m])
	copy(sv.arena.upd[sv.updOff[s]*m:], v[t*m:])
	return nil
}

func referenceBackwardM[F float32 | float64](sv *Solver, panels [][]F, s int) error {
	sym := sv.F.Sym
	ns, t, j0, m := sym.Height(s), sym.Width(s), sym.Super[s], sv.cur.m
	panel := panels[s]
	v := sv.arena.fronts[0][:ns*m]
	sv.gatherBackwardM(s, t, j0, m, 0, m, v)
	bsz := sv.bsz[s]
	for k := (t+bsz-1)/bsz - 1; k >= 0; k-- {
		r0 := k * bsz
		r1 := min(r0+bsz, t)
		bw := r1 - r0
		acc := make([]float64, bw*m)
		for j := 0; j < bw; j++ {
			col := panel[(r0+j)*ns : (r0+j+1)*ns]
			aj := acc[j*m : (j+1)*m]
			for li := r1; li < ns; li++ {
				lij := float64(col[li])
				if lij == 0 {
					continue
				}
				src := v[li*m : (li+1)*m]
				for c := range aj {
					aj[c] += lij * src[c]
				}
			}
		}
		xk := v[r0*m : r1*m]
		for i := range acc {
			xk[i] -= acc[i]
		}
		for j := bw - 1; j >= 0; j-- {
			col := panel[(r0+j)*ns : (r0+j+1)*ns]
			xj := xk[j*m : (j+1)*m]
			for i := j + 1; i < bw; i++ {
				lij := float64(col[r0+i])
				xi := xk[i*m : (i+1)*m]
				for c := range xj {
					xj[c] -= lij * xi[c]
				}
			}
			piv := float64(col[r0+j])
			if chol.BadPivot(piv) {
				return &BreakdownError{Supernode: s, Column: j0 + r0 + j, Pivot: piv}
			}
			inv := 1 / piv
			for c := range xj {
				xj[c] *= inv
			}
		}
	}
	sv.storeBackwardM(j0, t, m, 0, m, v)
	return nil
}

// sweepBodies are the per-supernode sweeps of one run of the comparison.
type sweepBodies[F float32 | float64] struct {
	forward, backward func(sv *Solver, panels [][]F, s int) error
}

func referenceBodies[F float32 | float64]() sweepBodies[F] {
	return sweepBodies[F]{referenceForwardM[F], referenceBackwardM[F]}
}

// kernelBodies is the blocked kernel over the given row primitives,
// each supernode swept as windows lane windows, one after the other: 1 is
// the whole width, and more windows than m/windowLanes are capped there.
func kernelBodies[F float32 | float64](rows rowops.Kernels[F], windows int) sweepBodies[F] {
	each := func(sv *Solver, s int, body func(*Solver, [][]F, *rowops.Kernels[F], int, int, int, int) error, panels [][]F) error {
		m := sv.cur.m
		k := min(windows, max(m/windowLanes, 1))
		for i := 0; i < k; i++ {
			k0, k1 := laneWindow(m, k, i)
			if err := body(sv, panels, &rows, s, 0, k0, k1); err != nil {
				return err
			}
		}
		return nil
	}
	return sweepBodies[F]{
		forward:  func(sv *Solver, panels [][]F, s int) error { return each(sv, s, forwardSupernodeM[F], panels) },
		backward: func(sv *Solver, panels [][]F, s int) error { return each(sv, s, backwardSupernodeM[F], panels) },
	}
}

func plane64(f *chol.Factor) [][]float64 { return f.Panels }
func plane32(f *chol.Factor) [][]float32 { return f.Panels32 }

// sweepsWith runs both sweeps of b over every supernode in postorder on
// the calling goroutine with the given bodies, below SolveInto (no lock,
// no pool, no final scan). Each call gets its own solver, so the arenas
// of two runs can be compared afterwards.
func sweepsWith[F float32 | float64](f *chol.Factor, prec Precision, plane func(*chol.Factor) [][]F,
	b *sparse.Block, bodies sweepBodies[F]) (*Solver, *sparse.Block, error) {
	sv := NewSolver(f, Options{Workers: 1, Precision: prec}) // builds the float32 plane on demand
	panels := plane(f)
	x := sparse.NewBlock(b.N, b.M)
	sv.arena.ensure(sv, b.M)
	sv.cur.b, sv.cur.x, sv.cur.m = b, x, b.M
	for s := 0; s < f.Sym.NSuper; s++ {
		if err := bodies.forward(sv, panels, s); err != nil {
			return sv, nil, err
		}
	}
	for s := f.Sym.NSuper - 1; s >= 0; s-- {
		if err := bodies.backward(sv, panels, s); err != nil {
			return sv, nil, err
		}
	}
	return sv, x, nil
}

// kernelMatchesReference solves b on one value plane five ways — the
// reference loops, the kernel over the portable row primitives, the
// kernel over the selected ones (the assembly where the CPU has it), the
// same kernel over as many lane windows as the width allows, and SolveCtx
// on 1 and 3 workers — and requires one answer, bit for bit.
func kernelMatchesReference[F float32 | float64](t *testing.T, f *chol.Factor, prec Precision,
	plane func(*chol.Factor) [][]F, selected rowops.Kernels[F], b *sparse.Block, seen *KernelTasks) *sparse.Block {
	t.Helper()
	_, want, err := sweepsWith(f, prec, plane, b, referenceBodies[F]())
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, x *sparse.Block) {
		t.Helper()
		for i, v := range x.Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				t.Fatalf("m=%d precision=%s: %s differs from the reference loops at entry %d: %v vs %v",
					b.M, prec, what, i, v, want.Data[i])
			}
		}
	}
	for _, run := range []struct {
		what    string
		rows    rowops.Kernels[F]
		windows int
	}{
		{"kernel over the portable rows", rowops.Portable[F](), 1},
		{"kernel over the " + rowops.VectorISA() + " rows", selected, 1},
		{"kernel over lane windows of the " + rowops.VectorISA() + " rows", selected, math.MaxInt},
	} {
		_, x, err := sweepsWith(f, prec, plane, b, kernelBodies(run.rows, run.windows))
		if err != nil {
			t.Fatal(err)
		}
		same(run.what, x)
	}
	for _, workers := range []int{1, 3} {
		sv := NewSolver(f, Options{Workers: workers, Precision: prec})
		x, st, err := sv.SolveCtx(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		same("SolveCtx", x)
		for k := range seen {
			seen[k] += st.KernelTasks[k]
		}
		sv.Close()
	}
	return want
}

// TestKernelDispatchPropertyRandomShapes is the kernel's property test:
// for every trapezoid shape, every RHS width 1..33 and both storage
// precisions, kernelMatchesReference must hold. Each shape runs a second
// time on a factor exactly representable in float32, where the two
// precisions are one algorithm over the same numbers: there every
// float32 answer must be bitwise equal to the float64 one. Only the
// flat1 and generic slots of the census may count.
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
			for m := 1; m <= 33; m++ {
				b := mesh.RandomRHS(f.Sym.N, m, int64(h*100+w*10+m))
				want64 := kernelMatchesReference(t, f, PrecisionFloat64, plane64, rowops.F64, b, &seen)
				want32 := kernelMatchesReference(t, f, PrecisionFloat32, plane32, rowops.F32, b, &seen)
				if t.Failed() {
					t.Fatalf("shape %d×%d exact=%v", h, w, exact)
				}
				if exact && !slices.Equal(want32.Data, want64.Data) {
					t.Fatalf("shape %d×%d m=%d float32-representable factor: float32 answer differs bitwise from float64", h, w, m)
				}
			}
		}
	}
	for k, n := range seen {
		shape := kernelID(k % int(numKernelIDs))
		if counted := shape == kidFlat1 || shape == kidGenericM; counted != (n != 0) {
			t.Errorf("kernel %s counted %d supernodes across the width sweep", kernelSlotNames[k], n)
		}
	}
}

// TestZeroPivotInsideForwardBlock puts a zero on the diagonal of each
// column of a forward block but the first — and of the block after it —
// and requires the kernel to name exactly that column, leaving the
// block's rows from that column on as the reference loops leave them:
// unscaled. Then, on a supernode spanning three forward panels, it puts a
// NaN pivot mid-panel: the forward sweep must name its column and leave
// the supernode's front as the reference loops leave it, and a backward
// sweep over a forward sweep of the intact factor must name it too.
func TestZeroPivotInsideForwardBlock(t *testing.T) {
	t.Run("mid-panel", zeroPivotMidPanel)
	rng := rand.New(rand.NewSource(19))
	const h, w, m = 12, 8, 5
	for _, j := range []int{1, 2, 3, 5, 6, 7} {
		f := trapezoidFactor(t, rng, h, w)
		target := trapezoidSupernode(f.Sym, h, w)
		f.Panels[target][j*h+j] = 0
		b := mesh.RandomRHS(f.Sym.N, m, int64(j))
		ref, _, refErr := sweepsWith(f, PrecisionFloat64, plane64, b, referenceBodies[float64]())
		sv, _, err := sweepsWith(f, PrecisionFloat64, plane64, b, kernelBodies(rowops.F64, 1))
		var be, refBe *BreakdownError
		if !errors.As(err, &be) || !errors.As(refErr, &refBe) {
			t.Fatalf("zero pivot in column %d returned %v (reference %v), want *BreakdownError", j, err, refErr)
		}
		if *be != *refBe || be.Supernode != target || be.Column != f.Sym.Super[target]+j || be.Pivot != 0 {
			t.Fatalf("zero pivot in column %d: breakdown = %+v, reference %+v", j, be, refBe)
		}
		blockEnd := (j/rowops.Block + 1) * rowops.Block
		// The sweep stopped at the target, whose rows are still in the front.
		got, want := sv.arena.fronts[0][j*m:blockEnd*m], ref.arena.fronts[0][j*m:blockEnd*m]
		if !slices.Equal(got, want) {
			t.Fatalf("zero pivot in column %d: rows %d..%d of the block are %v, the reference left %v", j, j, blockEnd-1, got, want)
		}
	}
}

func zeroPivotMidPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const h, w = 90, 72 // panels of 32, 32 and 8 columns; blocks of 8
	f := trapezoidFactor(t, rng, h, w)
	target := trapezoidSupernode(f.Sym, h, w)
	panel := f.Panels[target]
	for _, j := range []int{5, 17, 45, 70} {
		for _, m := range []int{3, 30} {
			b := mesh.RandomRHS(f.Sym.N, m, int64(j+m))
			column := f.Sym.Super[target] + j
			good := panel[j*h+j]
			panel[j*h+j] = math.NaN()
			ref, _, refErr := sweepsWith(f, PrecisionFloat64, plane64, b, referenceBodies[float64]())
			sv, _, err := sweepsWith(f, PrecisionFloat64, plane64, b, kernelBodies(rowops.F64, 1))
			panel[j*h+j] = good
			named := func(err error) bool {
				var be *BreakdownError
				return errors.As(err, &be) && be.Supernode == target && be.Column == column && math.IsNaN(be.Pivot)
			}
			if !named(err) || !named(refErr) {
				t.Fatalf("forward, NaN pivot in column %d, m=%d: got %v (reference %v), want column %d", j, m, err, refErr, column)
			}
			if got, wantBuf := sv.arena.fronts[0][:h*m], ref.arena.fronts[0][:h*m]; !slices.Equal(got, wantBuf) {
				t.Fatalf("forward, NaN pivot in column %d, m=%d: the supernode's front differs from the reference loops'", j, m)
			}
			for _, bodies := range []sweepBodies[float64]{referenceBodies[float64](), kernelBodies(rowops.F64, 1)} {
				err := backwardAfterIntactForward(f, b, bodies, func() { panel[j*h+j] = math.NaN() })
				panel[j*h+j] = good
				if !named(err) {
					t.Fatalf("backward, NaN pivot in column %d, m=%d: got %v, want column %d", j, m, err, column)
				}
			}
		}
	}
}

// backwardAfterIntactForward runs the forward sweep of b with bodies on
// the calling goroutine, then spoil, then the backward sweep, and returns
// the first error.
func backwardAfterIntactForward(f *chol.Factor, b *sparse.Block, bodies sweepBodies[float64], spoil func()) error {
	sv := NewSolver(f, Options{Workers: 1})
	sv.arena.ensure(sv, b.M)
	sv.cur.b, sv.cur.x, sv.cur.m = b, sparse.NewBlock(b.N, b.M), b.M
	for s := range f.Sym.NSuper {
		if err := bodies.forward(sv, f.Panels, s); err != nil {
			return err
		}
	}
	spoil()
	for s := f.Sym.NSuper - 1; s >= 0; s-- {
		if err := bodies.backward(sv, f.Panels, s); err != nil {
			return err
		}
	}
	return nil
}

// TestKernelDispatchZeroAllocs pins 0 allocs/op warm for the multi-RHS
// kernel on shapes with a full-width row (m = 30) and residue-only rows
// (m = 3), sequential and through the pool.
func TestKernelDispatchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct{ h, w, m, workers int }{
		{64, 16, 5, 1},
		{64, 16, 3, 1},
		{300, 4, 30, 1},
		{300, 4, 8, 3},
	} {
		f := trapezoidFactor(t, rng, tc.h, tc.w)
		sv := NewSolver(f, Options{Workers: tc.workers})
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
			t.Errorf("shape %d×%d m=%d workers=%d: %.0f allocs per warm SolveInto, want 0",
				tc.h, tc.w, tc.m, tc.workers, allocs)
		}
		sv.Close()
	}
}

// TestKernelTotalsAccumulate pins the serving-layer counter contract:
// totals accumulate 2× the per-sweep census per solve (both sweeps), and
// the census follows the RHS width — flat1 at one right-hand side, generic
// at every other.
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
	if tot[kidFlat1] != 2*ns || tot[kidGenericM] != 2*ns || tot.Total() != 4*ns {
		t.Fatalf("after m=1 and m=8 solves: totals %v, want %d flat1 + %d generic", tot.Map(), 2*ns, 2*ns)
	}
}
