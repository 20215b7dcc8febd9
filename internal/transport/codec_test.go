package transport

import (
	"encoding/binary"
	"math"
	"testing"

	"sptrsv/internal/sparse"
)

func TestCodecRoundTrip(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {7, 1}, {5, 3}, {100, 30}} {
		n, m := dims[0], dims[1]
		b := sparse.NewBlock(n, m)
		for i := range b.Data {
			b.Data[i] = float64(i) * 1.25
		}
		// Special values must round-trip bitwise.
		b.Data[0] = math.NaN()
		if len(b.Data) > 1 {
			b.Data[1] = math.Inf(-1)
		}
		got, err := DecodeBlock(EncodeBlock(nil, b))
		if err != nil {
			t.Fatalf("%dx%d: %v", n, m, err)
		}
		if got.N != n || got.M != m {
			t.Fatalf("%dx%d: decoded as %dx%d", n, m, got.N, got.M)
		}
		for i := range b.Data {
			if math.Float64bits(b.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("%dx%d: word %d not bitwise round-tripped", n, m, i)
			}
		}
	}
}

func TestDecodeBlockRejectsMalformed(t *testing.T) {
	mk := func(n, m uint32, payloadWords int) []byte {
		buf := binary.LittleEndian.AppendUint32(nil, n)
		buf = binary.LittleEndian.AppendUint32(buf, m)
		return append(buf, make([]byte, payloadWords*8)...)
	}
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"short header", []byte{1, 2, 3}},
		{"zero rows", mk(0, 1, 0)},
		{"zero cols", mk(1, 0, 0)},
		{"payload short of prefix", mk(10, 2, 19)},
		{"payload beyond prefix", mk(10, 2, 21)},
		{"ragged payload", append(mk(2, 1, 2), 0xff)},
		{"huge prefix small body", mk(1<<31, 1<<31, 1)},
		{"overflowing product", mk(math.MaxUint32, math.MaxUint32, 4)},
	}
	for _, c := range cases {
		if _, err := DecodeBlock(c.buf); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
}

// FuzzDecodeBlock is the satellite never-panic guarantee: arbitrary
// bytes — hostile length prefixes, NaN/Inf payloads, truncations — must
// either decode to a well-formed block that re-encodes to the identical
// bytes, or return an error. Never panic, never over-allocate.
func FuzzDecodeBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0})
	b := sparse.NewBlock(3, 2)
	b.Data[0], b.Data[5] = math.NaN(), math.Inf(1)
	f.Add(EncodeBlock(nil, b))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		blk, err := DecodeBlock(data)
		if err != nil {
			return
		}
		if blk.N <= 0 || blk.M <= 0 || len(blk.Data) != blk.N*blk.M {
			t.Fatalf("decoded malformed block %dx%d with %d words", blk.N, blk.M, len(blk.Data))
		}
		// A successful decode must re-encode to the input bitwise (the
		// format has no slack bytes).
		out := EncodeBlock(nil, blk)
		if len(out) != len(data) {
			t.Fatalf("re-encode length %d != input %d", len(out), len(data))
		}
		for i := range out {
			if out[i] != data[i] {
				t.Fatalf("re-encode differs at byte %d", i)
			}
		}
	})
}
