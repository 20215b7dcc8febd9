package registry

import (
	"testing"

	"sptrsv/internal/native"
	"sptrsv/internal/serve"
)

// TestRegisterWithKernelOverride pins the nil-means-template contract: a
// kernel-only override forces the kernel family, keeps the template's
// precision, and the status reports both.
func TestRegisterWithKernelOverride(t *testing.T) {
	reg := New(Config{Serve: serve.Config{Workers: 8}})
	defer reg.Close()
	src, err := Grid2DSource(15, 15)
	if err != nil {
		t.Fatal(err)
	}
	kern := native.KernelTiled
	if err := reg.RegisterWith("tk", src, BuildOptions{Kernel: &kern}); err != nil {
		t.Fatal(err)
	}
	h, err := reg.AcquireWait("tk", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if got := h.Server().Solver().Kernel(); got != native.KernelTiled {
		t.Fatalf("override built kernel %s, want tiled", got)
	}
	if got := h.Server().Precision(); got != native.PrecisionFloat64 {
		t.Fatalf("kernel-only override changed the precision: got %s, template says float64", got)
	}
	st, err := reg.Status("tk")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kernel != "tiled" || st.Precision != "float64" {
		t.Fatalf("status reports kernel %q precision %q, want tiled/float64", st.Kernel, st.Precision)
	}
}
