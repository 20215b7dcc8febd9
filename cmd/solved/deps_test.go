package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestDaemonLeavesSimulatorOut: the daemon serves a matrix as its
// permuted form and numeric factor, so nothing of the virtual-machine
// pipeline — the machine model, the mapping, the simulated solver, the
// parallel factorization, the redistribution or the pipeline driver —
// may be linked into it.
func TestDaemonLeavesSimulatorOut(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	simulator := map[string]bool{}
	for _, p := range []string{"machine", "mapping", "core", "parfact", "redist", "harness"} {
		simulator["sptrsv/internal/"+p] = true
	}
	for _, dep := range strings.Fields(string(out)) {
		if simulator[dep] {
			t.Errorf("solved links %s", dep)
		}
	}
}
