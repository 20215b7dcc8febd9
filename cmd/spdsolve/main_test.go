package main

import (
	"strings"
	"testing"
)

// TestConflictingMatrixFlagsRejected: any two matrix sources are one too
// many, whichever pair it is. The file flags once silently won — -hb
// over -mm, and either over -problem/-grid2d/-cube — so the files named
// here do not exist: reaching for one would fail with a different error.
func TestConflictingMatrixFlagsRejected(t *testing.T) {
	type flags struct {
		name, grid2d string
		cube         int
		mm, hb       string
	}
	sources := []struct {
		flag string
		set  func(*flags)
	}{
		{"-problem", func(f *flags) { f.name = "GRID2D-127" }},
		{"-grid2d", func(f *flags) { f.grid2d = "9x9" }},
		{"-cube", func(f *flags) { f.cube = 4 }},
		{"-mm", func(f *flags) { f.mm = "no-such-file.mtx" }},
		{"-hb", func(f *flags) { f.hb = "no-such-file.rsa" }},
	}
	for i, a := range sources {
		for _, b := range sources[i+1:] {
			var f flags
			a.set(&f)
			b.set(&f)
			pr, err := prepareProblem(f.name, f.grid2d, f.cube, f.mm, f.hb, false)
			if err == nil || !strings.Contains(err.Error(), "use only one of -problem, -grid2d, -cube, -mm, -hb") {
				t.Errorf("%s with %s: got %v, %v; want the use-only-one error", a.flag, b.flag, pr, err)
			}
		}
	}
}

// TestSingleMatrixFlag: one source alone is prepared, under the name the
// simulator's report prints.
func TestSingleMatrixFlag(t *testing.T) {
	for _, c := range []struct {
		grid2d string
		cube   int
		want   string
		n      int
	}{
		{grid2d: "9x7", want: "GRID2D-9x7", n: 63},
		{cube: 4, want: "CUBE-4", n: 64},
	} {
		pr, err := prepareProblem("", c.grid2d, c.cube, "", "", false)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Name != c.want || pr.Sym.N != c.n || pr.A.N != c.n {
			t.Errorf("got %s with N = %d (matrix %d), want %s with N = %d", pr.Name, pr.Sym.N, pr.A.N, c.want, c.n)
		}
	}
	if _, err := prepareProblem("", "", 0, "no-such-file.mtx", "", false); err == nil {
		t.Error("-mm alone with a missing file: no error")
	}
}
