package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"sptrsv/internal/sparse"
)

// The solve wire format is a length-prefixed binary float64 block,
// identical in both directions (request right-hand sides and response
// solutions):
//
//	offset 0: uint32 LE  n  — rows (the matrix order)
//	offset 4: uint32 LE  m  — columns (number of right-hand sides, ≥ 1)
//	offset 8: n×m float64 LE, row-major (value (i,j) at word i*m+j —
//	          the layout of sparse.Block.Data)
//
// The prefix is validated against the actual payload length before any
// allocation, so a hostile prefix can neither over-allocate nor panic
// the decoder; NaN and ±Inf payload values decode verbatim (the
// solver's own finiteness guards decide their fate downstream).

// blockHeaderLen is the fixed prefix size in bytes.
const blockHeaderLen = 8

// maxBlockWords caps n×m so a decoded block's backing slice stays under
// 1 GiB even if a future caller feeds the decoder a pre-trusted length.
const maxBlockWords = 1 << 27

// EncodeBlock appends the wire encoding of b to dst and returns the
// extended slice.
func EncodeBlock(dst []byte, b *sparse.Block) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.N))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.M))
	for _, v := range b.Data {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeBlock parses one wire-format block from buf. It never panics:
// every malformed input — truncated header, length prefix disagreeing
// with the payload, zero or overflowing dimensions — returns an error.
func DecodeBlock(buf []byte) (*sparse.Block, error) {
	n, m, payload, err := parseBlock(buf)
	if err != nil {
		return nil, err
	}
	blk := sparse.NewBlock(n, m)
	for i := range blk.Data {
		blk.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return blk, nil
}

// parseBlock validates buf's header against its payload and returns the
// block's dimensions and its payload bytes — DecodeBlock without the
// allocation, for a caller that decodes columns into vectors of its own.
func parseBlock(buf []byte) (n, m int, payload []byte, err error) {
	if len(buf) < blockHeaderLen {
		return 0, 0, nil, fmt.Errorf("transport: solve body too short for header: %d bytes (want ≥ %d)", len(buf), blockHeaderLen)
	}
	n32 := binary.LittleEndian.Uint32(buf[0:4])
	m32 := binary.LittleEndian.Uint32(buf[4:8])
	if n32 == 0 || m32 == 0 {
		return 0, 0, nil, fmt.Errorf("transport: solve body has empty dimensions %d×%d", n32, m32)
	}
	words := uint64(n32) * uint64(m32)
	if words > maxBlockWords {
		return 0, 0, nil, fmt.Errorf("transport: solve body dimensions %d×%d exceed the %d-value limit", n32, m32, maxBlockWords)
	}
	payload = buf[blockHeaderLen:]
	if uint64(len(payload)) != words*8 {
		return 0, 0, nil, fmt.Errorf("transport: solve body length prefix %d×%d wants %d payload bytes, got %d",
			n32, m32, words*8, len(payload))
	}
	return int(n32), int(m32), payload, nil
}

// decodeColumn fills dst with column j of the m-column payload.
func decodeColumn(dst []float64, payload []byte, m, j int) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[(i*m+j)*8:]))
	}
}

// appendColumns appends the wire encoding of the block whose columns are
// cols (each of length n) to dst — EncodeBlock for a block held as
// separate column vectors, written in place into dst grown once.
func appendColumns(dst []byte, n int, cols [][]float64) []byte {
	at := len(dst)
	size := blockHeaderLen + 8*n*len(cols)
	dst = slices.Grow(dst, size)[:at+size]
	out := dst[at:]
	binary.LittleEndian.PutUint32(out[0:4], uint32(n))
	binary.LittleEndian.PutUint32(out[4:8], uint32(len(cols)))
	out = out[blockHeaderLen:]
	for i := 0; i < n; i++ {
		for _, col := range cols {
			binary.LittleEndian.PutUint64(out, math.Float64bits(col[i]))
			out = out[8:]
		}
	}
	return dst
}

// maxPooledVec is the longest vector putVec keeps (1 MiB of values).
const maxPooledVec = 1 << 17

// vecs pools the right-hand-side and answer vectors of solve requests.
var vecs sync.Pool

// getVec returns a pooled vector of length n.
func getVec(n int) *[]float64 {
	if v, ok := vecs.Get().(*[]float64); ok && cap(*v) >= n {
		*v = (*v)[:n]
		return v
	}
	v := make([]float64, n)
	return &v
}

// putVec returns v to the pool unless it is longer than maxPooledVec.
func putVec(v *[]float64) {
	if cap(*v) <= maxPooledVec {
		vecs.Put(v)
	}
}
