package sptrsv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"sptrsv/internal/analysis"
	"sptrsv/internal/harness"
	"sptrsv/internal/machine"
	"sptrsv/internal/mesh"
)

// TestEndToEndSuite runs the complete paper pipeline — parallel
// factorization, redistribution, and parallel FBsolve — on the full
// problem suite across processor counts and RHS widths, verifying
// residuals and the paper's qualitative claims on every run.
func TestEndToEndSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite integration sweep")
	}
	for _, pr := range harness.SuitePrepared() {
		pr := pr
		t.Run(pr.Name, func(t *testing.T) {
			var prevTime float64
			for _, p := range []int{1, 4, 16, 64} {
				for _, m := range []int{1, 8} {
					cfg := harness.DefaultConfig(p)
					cfg.NRHS = m
					res, err := harness.Run(pr, cfg)
					if err != nil {
						t.Fatalf("p=%d m=%d: %v", p, m, err)
					}
					if res.Residual > 1e-10 {
						t.Fatalf("p=%d m=%d: residual %g", p, m, res.Residual)
					}
					// the paper's headline orderings
					if res.Solve.Time > res.Factor.Time {
						t.Fatalf("p=%d m=%d: solve slower than factorization", p, m)
					}
					if res.Redist.Time > res.Solve.Time {
						t.Fatalf("p=%d m=%d: redistribution (%g) exceeds solve (%g)",
							p, m, res.Redist.Time, res.Solve.Time)
					}
					if m == 1 {
						if prevTime > 0 && res.Solve.Time > prevTime*1.05 {
							t.Fatalf("p=%d: solve time regressed vs previous p (%g > %g)",
								p, res.Solve.Time, prevTime)
						}
						prevTime = res.Solve.Time
					}
				}
			}
		})
	}
}

// TestDeterministicAcrossRuns re-runs one full pipeline and demands
// bit-identical virtual times and flop counts — the virtual machine's
// core guarantee.
func TestDeterministicAcrossRuns(t *testing.T) {
	prob, err := mesh.ByName("GRID2D-127")
	if err != nil {
		t.Fatal(err)
	}
	pr := harness.Prepare(prob)
	run := func() harness.Result {
		res, err := harness.Run(pr, harness.DefaultConfig(16))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Factor.Time != b.Factor.Time || a.Solve.Time != b.Solve.Time ||
		a.Redist.Time != b.Redist.Time || a.Solve.Flops != b.Solve.Flops {
		t.Fatalf("nondeterministic pipeline:\n%+v\n%+v", a, b)
	}
}

// TestSpeedupClaims verifies the paper's abstract-level numbers on the
// BCSSTK15-class problem: ~20× single-RHS performance enhancement at
// p=256 and a solve that stays under the factorization at every p.
func TestSpeedupClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("256-processor sweep")
	}
	prob, err := mesh.ByName("GRID2D-127")
	if err != nil {
		t.Fatal(err)
	}
	pr := harness.Prepare(prob)
	r1, err := harness.SolveOnly(pr, harness.DefaultConfig(1), []int{1, 30})
	if err != nil {
		t.Fatal(err)
	}
	r256, err := harness.SolveOnly(pr, harness.DefaultConfig(256), []int{1, 30})
	if err != nil {
		t.Fatal(err)
	}
	enh1 := r256[0].Solve.MFLOPS() / r1[0].Solve.MFLOPS()
	enh30 := r256[1].Solve.MFLOPS() / r1[1].Solve.MFLOPS()
	if enh1 < 15 {
		t.Fatalf("NRHS=1 enhancement at p=256 is %.1f×, want ≥15 (paper: ~20)", enh1)
	}
	if enh30 < 20 {
		t.Fatalf("NRHS=30 enhancement at p=256 is %.1f×, want ≥20", enh30)
	}
	// sanity anchor: sequential performance near the paper's 5.5 MFLOPS
	if mf := r1[0].Solve.MFLOPS(); mf < 5.0 || mf > 6.0 {
		t.Fatalf("p=1 NRHS=1 rate %.2f MFLOPS, want ≈5.5", mf)
	}
	eff := analysis.Efficiency(r1[0].Solve.Time, r256[0].Solve.Time, 256)
	t.Logf("p=256 NRHS=1: %.1f MFLOPS (%.1f× over p=1, efficiency %.2f)",
		r256[0].Solve.MFLOPS(), enh1, eff)
}

// TestModelConstantsDocumented guards the calibration documented in
// DESIGN.md and EXPERIMENTS.md against silent drift.
func TestModelConstantsDocumented(t *testing.T) {
	m := machine.T3D()
	want := machine.CostModel{Ts: 2e-6, Tw: 25e-9, Tm: 310e-9, Tc: 28e-9, Tcopy: 40e-9}
	if m != want {
		t.Fatalf("machine.T3D() = %+v drifted from documented %+v — update DESIGN.md/EXPERIMENTS.md", m, want)
	}
}

// exportedNames parses the non-test Go files of dir and returns every
// exported top-level declaration and method name in them.
func exportedNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	names := make(map[string]bool)
	add := func(id *ast.Ident) {
		if id.IsExported() {
			names[id.Name] = true
		}
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						add(sp.Name)
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							add(id)
						}
					}
				}
			}
		}
	}
	return names
}

// TestDocCitationsExist keeps a citation from outliving its artifact:
// every results/<file>, cmd/<name> and `make <target>` that README.md,
// DESIGN.md or EXPERIMENTS.md names must exist in the tree / the Makefile
// (a `*` or a <placeholder> in a file name is a glob that must match),
// every `pkg.Name` whose pkg is a directory under internal/ must be an
// exported declaration or method of that package, and the Makefile's
// .PHONY list must be exactly its defined targets.
func TestDocCitationsExist(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	phony := strings.Fields(regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindStringSubmatch(string(makefile))[1])
	var targets []string
	for _, m := range regexp.MustCompile(`(?m)^([a-z]+):`).FindAllStringSubmatch(string(makefile), -1) {
		targets = append(targets, m[1])
	}
	slices.Sort(phony)
	slices.Sort(targets)
	if !slices.Equal(phony, targets) {
		t.Errorf("Makefile: .PHONY lists %v, targets defined are %v", phony, targets)
	}

	resultRe := regexp.MustCompile(`results/[\w.*<>-]+`)
	cmdRe := regexp.MustCompile(`cmd/\w+`)
	makeRe := regexp.MustCompile("`make\\s+[a-z]+")
	placeholderRe := regexp.MustCompile(`<\w+>`)
	identRe := regexp.MustCompile("`[*&]?([a-z0-9]+)\\.([A-Z]\\w*)")
	exported := make(map[string]map[string]bool) // internal package → its exported names
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		cited := func(re *regexp.Regexp) []string {
			all := re.FindAllString(text, -1)
			slices.Sort(all)
			return slices.Compact(all)
		}
		for _, cite := range cited(resultRe) {
			pattern := placeholderRe.ReplaceAllString(strings.TrimRight(cite, "."), "*")
			if hits, _ := filepath.Glob(pattern); len(hits) == 0 {
				t.Errorf("%s cites %s, which is not in the tree", doc, cite)
			}
		}
		for _, cite := range cited(cmdRe) {
			if _, err := os.Stat(filepath.Join(cite, "main.go")); err != nil {
				t.Errorf("%s cites %s: %v", doc, cite, err)
			}
		}
		for _, cite := range cited(makeRe) {
			if target := strings.Fields(cite)[1]; !slices.Contains(targets, target) {
				t.Errorf("%s cites %s`, which the Makefile does not define", doc, cite)
			}
		}
		for _, cite := range cited(identRe) {
			m := identRe.FindStringSubmatch(cite)
			dir := filepath.Join("internal", m[1])
			if st, err := os.Stat(dir); err != nil || !st.IsDir() {
				continue // not one of our packages (http.Client, time.Duration, …)
			}
			if exported[m[1]] == nil {
				exported[m[1]] = exportedNames(t, dir)
			}
			if !exported[m[1]][m[2]] {
				t.Errorf("%s cites %s`, which internal/%s does not declare", doc, cite, m[1])
			}
		}
	}
}

// TestSuiteMapsToPaperMatrices keeps the suite↔paper mapping in sync
// with the documentation.
func TestSuiteMapsToPaperMatrices(t *testing.T) {
	refs := map[string]string{
		"GRID2D-127":    "BCSSTK15",
		"SHELL-32x32x4": "BCSSTK31",
		"GRID2D9-96":    "HSCT",
		"CUBE-20":       "CUBE",
		"ANISO-160x80":  "COPTER2",
	}
	for _, prob := range mesh.Suite() {
		want := refs[prob.Name]
		if want == "" {
			t.Fatalf("suite problem %s not in the documented mapping", prob.Name)
		}
		if len(prob.PaperRef) == 0 {
			t.Fatalf("%s has no paper reference", prob.Name)
		}
		found := false
		for i := 0; i+len(want) <= len(prob.PaperRef); i++ {
			if prob.PaperRef[i:i+len(want)] == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s paper ref %q does not mention %s", prob.Name, prob.PaperRef, want)
		}
	}
}

// TestPipelineSmoke keeps the quickstart path covered by `go test`.
func TestPipelineSmoke(t *testing.T) {
	pr := harness.Prepare(mesh.Problem{
		Name: "demo", A: mesh.Grid2D(12, 12), Geom: mesh.Grid2DGeometry(12, 12),
	})
	res, err := harness.Run(pr, harness.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 1e-10 {
		t.Fatalf("residual %g", res.Residual)
	}
}
