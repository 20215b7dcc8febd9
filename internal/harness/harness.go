// Package harness drives the end-to-end experiment pipeline shared by the
// command-line tools and the benchmark suite: ordering → symbolic
// analysis → parallel multifrontal factorization (2-D layout) →
// redistribution (1-D layout) → parallel forward/backward solve, all on
// the virtual machine, with residual verification and paper-style table
// formatting for the results of Figures 7 and 8. The set-up rule itself
// is symbolic.Prepare, shared with the serving stack, which does not
// import this package; the wall-clock solve path's degradation ladder is
// in internal/ladder.
package harness

import (
	"fmt"
	"math/rand"
	"strings"

	"sptrsv/internal/core"
	"sptrsv/internal/machine"
	"sptrsv/internal/mapping"
	"sptrsv/internal/mesh"
	"sptrsv/internal/parfact"
	"sptrsv/internal/redist"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// Prepared is a problem after ordering and symbolic analysis, ready to be
// run at any processor count.
type Prepared struct {
	Name     string
	PaperRef string
	A        *sparse.SymCSC // permuted (fill-reducing ∘ postorder)
	Sym      *symbolic.Factor
}

// Prepare orders, analyzes and amalgamates a mesh problem with the
// shared set-up rule, symbolic.Prepare.
func Prepare(prob mesh.Problem) *Prepared {
	ap, sym := symbolic.Prepare(prob.A, prob.Geom)
	return &Prepared{Name: prob.Name, PaperRef: prob.PaperRef, A: ap, Sym: sym}
}

// PrepareExact orders and analyzes without amalgamation (exact
// fundamental supernodes).
func PrepareExact(prob mesh.Problem) *Prepared {
	ap, sym := symbolic.PrepareExact(prob.A, prob.Geom)
	return &Prepared{Name: prob.Name, PaperRef: prob.PaperRef, A: ap, Sym: sym}
}

// PrepareDense builds an n×n dense SPD problem with the single-supernode
// symbolic factor of symbolic.Dense — the paper's Section 3.3 dense
// triangular-solver reference.
func PrepareDense(n int) *Prepared {
	rng := rand.New(rand.NewSource(int64(n)))
	t := sparse.NewTriplet(n)
	for i := 0; i < n; i++ {
		t.Add(i, i, float64(n))
		for j := 0; j < i; j++ {
			t.Add(i, j, -0.5+rng.Float64()*0.2)
		}
	}
	return &Prepared{
		Name: fmt.Sprintf("DENSE-%d", n), PaperRef: "dense reference (§3.3)",
		A: t.Compile(), Sym: symbolic.Dense(n),
	}
}

// Result bundles the statistics of one full pipeline run.
type Result struct {
	Name       string
	N          int
	NnzL       int64
	P, B, NRHS int

	Factor parfact.Stats
	Redist redist.Stats
	Solve  core.Stats

	Residual float64 // ‖Ax−b‖∞ / ‖b‖∞
}

// Config selects the pipeline parameters.
type Config struct {
	P           int
	B           int // solver block size (the paper's b)
	BFact       int // factorization panel/block size
	NRHS        int
	Model       machine.CostModel
	RowPriority bool
	RHSSeed     int64
}

// DefaultConfig returns the experiments' defaults: solver b=8,
// factorization panels of 32, one RHS, T3D constants, column-priority.
func DefaultConfig(p int) Config {
	return Config{P: p, B: 8, BFact: 32, NRHS: 1, Model: machine.T3D(), RHSSeed: 1}
}

// bFact returns the factorization block size (falls back to B).
func (c Config) bFact() int {
	if c.BFact > 0 {
		return c.BFact
	}
	return c.B
}

// Run executes the full pipeline at the given configuration.
func Run(pr *Prepared, cfg Config) (Result, error) {
	res := Result{
		Name: pr.Name, N: pr.Sym.N, NnzL: pr.Sym.NnzL,
		P: cfg.P, B: cfg.B, NRHS: cfg.NRHS,
	}
	asn := mapping.SubtreeToSubcube(pr.Sym, cfg.P)
	mach := machine.New(cfg.P, cfg.Model)
	f2d, fstats, err := parfact.Factorize(mach, pr.A, pr.Sym, asn, cfg.bFact())
	if err != nil {
		return res, fmt.Errorf("harness: %s: %w", pr.Name, err)
	}
	res.Factor = fstats
	df, rstats := redist.ConvertTo(mach, f2d, cfg.B)
	res.Redist = rstats
	sv := core.NewSolver(df, core.Options{B: cfg.B, RowPriority: cfg.RowPriority})
	b := mesh.RandomRHS(pr.Sym.N, cfg.NRHS, cfg.RHSSeed)
	x, sstats := sv.Solve(mach, b)
	res.Solve = sstats
	res.Residual = RelResidual(pr.A, x, b) // on the permuted system
	return res, nil
}

// SolveOnly runs factorization once (untimed importance) and then solves
// with the given NRHS list on the same distributed factor, returning one
// Result per NRHS. Factor/redistribution stats are replicated.
func SolveOnly(pr *Prepared, cfg Config, nrhsList []int) ([]Result, error) {
	asn := mapping.SubtreeToSubcube(pr.Sym, cfg.P)
	mach := machine.New(cfg.P, cfg.Model)
	f2d, fstats, err := parfact.Factorize(mach, pr.A, pr.Sym, asn, cfg.bFact())
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", pr.Name, err)
	}
	df, rstats := redist.ConvertTo(mach, f2d, cfg.B)
	sv := core.NewSolver(df, core.Options{B: cfg.B, RowPriority: cfg.RowPriority})
	var out []Result
	for _, m := range nrhsList {
		b := mesh.RandomRHS(pr.Sym.N, m, cfg.RHSSeed)
		x, sstats := sv.Solve(mach, b)
		out = append(out, Result{
			Name: pr.Name, N: pr.Sym.N, NnzL: pr.Sym.NnzL,
			P: cfg.P, B: cfg.B, NRHS: m,
			Factor: fstats, Redist: rstats, Solve: sstats,
			Residual: RelResidual(pr.A, x, b),
		})
	}
	return out, nil
}

// Fig7Block renders the paper-style results block of one matrix at one
// processor count (cf. the table in the paper's Figure 7).
func Fig7Block(pr *Prepared, p int, nrhsList []int, model machine.CostModel) (string, error) {
	cfg := DefaultConfig(p)
	cfg.Model = model
	results, err := SolveOnly(pr, cfg, nrhsList)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	first := results[0]
	fmt.Fprintf(&sb, "%s: N = %d; Factorization Opcount = %.2f Million; Nonzeros in factor = %.3f Million\n",
		pr.Name, pr.Sym.N, float64(pr.Sym.FactorFlops)/1e6, float64(pr.Sym.NnzL)/1e6)
	fmt.Fprintf(&sb, "p = %-4d  Factorization time = %.4f sec.  Factorization MFLOPS = %.1f  Time to redistribute L = %.4f sec.\n",
		p, first.Factor.Time, first.Factor.MFLOPS(), first.Redist.Time)
	fmt.Fprintf(&sb, "  %-16s", "NRHS")
	for _, r := range results {
		fmt.Fprintf(&sb, "%10d", r.NRHS)
	}
	fmt.Fprintf(&sb, "\n  %-16s", "FBsolve time")
	for _, r := range results {
		fmt.Fprintf(&sb, "%10.4f", r.Solve.Time)
	}
	fmt.Fprintf(&sb, "\n  %-16s", "FBsolve MFLOPS")
	for _, r := range results {
		fmt.Fprintf(&sb, "%10.1f", r.Solve.MFLOPS())
	}
	sb.WriteString("\n")
	return sb.String(), nil
}

// Fig8Series computes the MFLOPS-versus-p curves of the paper's Figure 8
// for one matrix: one row per processor count, one column per NRHS.
func Fig8Series(pr *Prepared, pList, nrhsList []int, model machine.CostModel) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (N=%d, nnz(L)=%d): FBsolve MFLOPS\n", pr.Name, pr.Sym.N, pr.Sym.NnzL)
	fmt.Fprintf(&sb, "%6s", "p")
	for _, m := range nrhsList {
		fmt.Fprintf(&sb, "  NRHS=%-4d", m)
	}
	sb.WriteString("\n")
	for _, p := range pList {
		cfg := DefaultConfig(p)
		cfg.Model = model
		results, err := SolveOnly(pr, cfg, nrhsList)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%6d", p)
		for _, r := range results {
			fmt.Fprintf(&sb, "%10.1f", r.Solve.MFLOPS())
		}
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

// SuitePrepared returns the standard five-problem suite, prepared.
func SuitePrepared() []*Prepared {
	var out []*Prepared
	for _, prob := range mesh.Suite() {
		out = append(out, Prepare(prob))
	}
	return out
}

// RelResidual returns ‖A·x − b‖∞ / ‖b‖∞ (NaN-propagating: a poisoned
// solution yields a NaN residual, never a healthy-looking number) — the
// check the experiment drivers and the benchmark's oracle apply to a
// solution. The production ladder (internal/ladder) verifies through
// internal/refine with the same formula.
func RelResidual(a *sparse.SymCSC, x, b *sparse.Block) float64 {
	r := sparse.NewBlock(b.N, b.M)
	a.MulBlock(x, r)
	r.AddScaled(-1, b)
	nb := b.NormInf()
	if nb == 0 {
		nb = 1
	}
	return r.NormInf() / nb
}
