package rowops

import (
	"fmt"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n zero elements that end exactly where an unreadable
// page begins, so a body that reads or writes one element past a buffer
// faults instead of passing on the padding the other tests leave.
func guarded[T float32 | float64](t *testing.T, n int) []T {
	t.Helper()
	var zero T
	size := int(unsafe.Sizeof(zero))
	page := syscall.Getpagesize()
	used := (n*size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, used+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[used:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[used-n*size])), n)
}

// TestPrimitivesStayInsideTheirBuffers runs every sweep primitive of both
// planes on buffers of exactly the size its contract names, each ending
// at an unreadable page: every m in 1..9, 30 and 33 that the primitive
// takes (Forward and Backward one-entry rows, ForwardPanel m ≥ 2), widths
// 1 to the most a call takes, and row counts from the width itself to
// past three 128-row groups; and Add on every length 0..67.
func TestPrimitivesStayInsideTheirBuffers(t *testing.T) {
	primitivesStayInside(t, F64)
	primitivesStayInside(t, F32)
	for n := 0; n <= 67; n++ {
		Add(guarded[float64](t, n), guarded[float64](t, n))
	}
}

func primitivesStayInside[F float32 | float64](t *testing.T, k Kernels[F]) {
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 30, 33} {
		for _, w := range []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 32} {
			for _, below := range []int{0, 1, 7, 129, 400} {
				n, ns := w+below, w+below
				name := fmt.Sprintf("m=%d w=%d n=%d", m, w, n)
				l := guarded[F](t, (w-1)*ns+n)
				for i := range l {
					l[i] = 1
				}
				v := guarded[float64](t, n*m)
				if m >= 2 {
					k.ForwardPanel(v, n, m, l, ns, w)
				}
				if w <= Sums {
					k.BackwardBlock(guarded[float64](t, w*m), v, n, m, l, ns, w)
				}
				if m == 1 && w <= Sums {
					k.Backward(guarded[float64](t, w), w, v[w:], below, l[w:], ns)
				}
				if m == 1 && w <= Block {
					k.Forward(v[:below], below, guarded[float64](t, w), 1, l[w:], ns, w)
				}
				if t.Failed() {
					t.Fatal(name)
				}
			}
		}
	}
}
