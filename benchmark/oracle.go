package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/harness"
	"sptrsv/internal/mesh"
	"sptrsv/internal/native"
	"sptrsv/internal/sparse"
)

// engineOptions are the shipped defaults of cmd/solved, spelled out:
// Workers 0 (= GOMAXPROCS), strategy auto, kernel auto, float64.
func engineOptions() native.Options {
	return native.Options{
		Strategy:  native.StrategyAuto,
		Kernel:    native.KernelAuto,
		Precision: native.PrecisionFloat64,
	}
}

// stageTimes are the set-up stages the benchmark can time from outside,
// one call each.
type stageTimes struct {
	prepare, factorize, newSolver time.Duration
}

// system is one problem taken through the set-up pipeline by the
// benchmark's own calls into order+symbolic (harness.Prepare) and chol.
type system struct {
	pr     *harness.Prepared
	f      *chol.Factor
	stages stageTimes
}

func buildSystem(w workloadSpec, short bool) (*system, error) {
	prob, _ := w.problem(short)
	t0 := time.Now()
	pr := harness.Prepare(prob)
	t1 := time.Now()
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		return nil, fmt.Errorf("factorizing %s: %w", prob.Name, err)
	}
	return &system{pr: pr, f: f, stages: stageTimes{prepare: t1.Sub(t0), factorize: time.Since(t1)}}, nil
}

// oracle holds every generated input and the reference answer to each.
// The program under test receives only the inputs; answers are compared
// to the references outside the timed spans.
type oracle struct {
	// sets are the value sets, all on one sparsity pattern: sets[0] is
	// the mesh's own values, sets[1] (workloads with a writer) the second
	// set derived from the seed.
	sets []*sparse.SymCSC
	rhs  []*sparse.Block
	ref  [][]*sparse.Block // ref[set][i] answers rhs[i] under sets[set]

	seen     atomic.Int64 // answers checked, drives the 1-in-N residual sample
	reported atomic.Int64 // mismatches described on stderr so far
}

// newOracle generates nRHS right-hand sides of `cols` columns from the
// seed and solves each with a plain 1-worker native.Solver, checking the
// reference itself with harness.RelResidual before trusting it.
func newOracle(sys *system, seed int64, nRHS, cols int, secondSet bool) (*oracle, error) {
	o := &oracle{sets: []*sparse.SymCSC{sys.pr.A}}
	if secondSet {
		o.sets = append(o.sets, secondValueSet(sys.pr.A, seed))
	}
	n := sys.pr.Sym.N
	for i := 0; i < nRHS; i++ {
		o.rhs = append(o.rhs, mesh.RandomRHS(n, cols, seed*1_000_003+int64(i)+1))
	}
	for v, a := range o.sets {
		f := sys.f
		if v > 0 {
			var err error
			if f, err = chol.Factorize(a, sys.pr.Sym); err != nil {
				return nil, fmt.Errorf("factorizing value set %d: %w", v, err)
			}
		}
		opts := engineOptions()
		opts.Workers = 1
		sv := native.NewSolver(f, opts)
		refs := make([]*sparse.Block, nRHS)
		for i, b := range o.rhs {
			x, _, err := sv.SolveCtx(context.Background(), b)
			if err != nil {
				sv.Close()
				return nil, fmt.Errorf("reference solve %d of value set %d: %w", i, v, err)
			}
			if r := harness.RelResidual(a, x, b); !(r <= oracleTol) {
				sv.Close()
				return nil, fmt.Errorf("reference %d of value set %d has residual %g > %g", i, v, r, oracleTol)
			}
			refs[i] = x
		}
		sv.Close()
		o.ref = append(o.ref, refs)
	}
	return o, nil
}

// secondValueSet returns s·A + t·diag(A) on A's pattern, s and t drawn
// from the seed. A is a diagonally dominant Laplacian, so the result is
// SPD for every s, t > 0.
func secondValueSet(a *sparse.SymCSC, seed int64) *sparse.SymCSC {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	s := 0.5 + rng.Float64()
	t := 0.05 + 0.45*rng.Float64()
	vals := make([]float64, len(a.Val))
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			vals[p] = s * a.Val[p]
			if a.RowIdx[p] == j {
				vals[p] += t * math.Abs(a.Val[p])
			}
		}
	}
	return &sparse.SymCSC{N: a.N, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: vals}
}

// anySet lets check accept the reference of either value set.
const anySet = -1

// check verifies one answer to rhs[i]: it must equal, bit for bit, the
// reference under value set `want` (or under one of the sets when want
// is anySet). The residual is recomputed on a 1-in-residualEvery sample
// and on every mismatch.
func (o *oracle) check(i int, x []float64, want int) bool {
	set := -1
	for v := range o.sets {
		if (want == anySet || want == v) && bitsEqual(x, o.ref[v][i].Data) {
			set = v
			break
		}
	}
	if set >= 0 && o.seen.Add(1)%residualEvery != 0 {
		return true
	}
	b := o.rhs[i]
	if len(x) != len(b.Data) {
		o.report("answer to rhs %d has %d values, want %d", i, len(x), len(b.Data))
		return false
	}
	r := harness.RelResidual(o.sets[max(set, 0)], &sparse.Block{N: b.N, M: b.M, Data: x}, b)
	if set < 0 {
		o.report("answer to rhs %d matches no reference bit for bit (residual %g)", i, r)
		return false
	}
	if !(r <= oracleTol) {
		o.report("answer to rhs %d has residual %g > %g", i, r, oracleTol)
		return false
	}
	return true
}

// errWrongAnswer is the failure of an answer that arrived but is wrong;
// check has already described it on stderr.
var errWrongAnswer = errors.New("wrong answer")

// verify folds the call's own error and the oracle's verdict into one:
// nil means the operation succeeded with the right answer.
func (o *oracle) verify(i int, x []float64, err error, want int) error {
	if err != nil {
		return err
	}
	if !o.check(i, x, want) {
		return errWrongAnswer
	}
	return nil
}

func (o *oracle) report(format string, args ...any) {
	if o.reported.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "benchmark: wrong answer: "+format+"\n", args...)
	}
}

// corrupt damages one reference; the smoke test uses it to prove that a
// wrong answer makes the command exit non-zero.
func (o *oracle) corrupt() {
	d := o.ref[0][0].Data
	d[len(d)/2] += 1
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
