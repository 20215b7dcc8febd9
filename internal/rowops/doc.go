// Package rowops holds the primitives the supernodal kernels spend their
// time in, once, for both callers: the multi-RHS sweeps of
// internal/native and the frontal factorization of internal/dense.
//
// The two row primitives update m-wide rows of float64 with the elements
// of a column-major panel on the value plane F (float32 or float64,
// widened as it is loaded):
//
//   - Forward subtracts up to Block solved rows, scaled by panel elements,
//     from every target row. The forward sweep calls it for the rank-4
//     update below a block of panel columns (the solved rows m apart);
//     PartialCholesky calls it with one target row — a front column from
//     its diagonal down — for the rank-4 and rank-1 updates inside a
//     panel of pivots (the factored columns as solved rows, lda apart).
//   - Backward accumulates panel-weighted rows into one partial sum per
//     block column, skipping panel elements that are zero.
//
// The third primitive, Schur, is float64 only: it applies up to
// Panel/Block rank-4 groups of factored front columns to the lower
// triangle of the trailing block, the Schur-complement update
// PartialCholesky makes once per panel of Panel pivots. A column skips a
// group whose four multipliers are all zero, as the unblocked loop does.
//
// Each primitive has a portable Go body (rows.go) and an AVX2 assembly
// body (rows_amd64.s, per plane for the row primitives), picked once at
// start-up from CPUID (rows_amd64.go). The m ≥ 2 Backward body takes the
// rows four at a time: a block column whose four panel elements are all
// non-zero loads and stores each chunk of its partial sum once for the
// four rows; a column with a zero among them, and the rows after the last
// full group, go one row at a time and skip the zeros. The assembly has a
// second body for m = 1, where a row is one entry: Forward puts four
// target rows in the lanes, Backward up to eight block columns (4 × 4
// panel tiles transposed in registers). The Schur body holds an 8-row ×
// 4-column tile of the trailing block in eight YMM registers across all
// the panel's pivots, so each trailing element is loaded and stored once
// per panel; a group that some of the tile's columns skip has its
// products ANDed with per-column masks instead. Every loop head of the
// m = 1 bodies, of the m ≥ 2 Backward body and of the Schur body is
// 32-byte aligned. All bodies apply the same operations to every entry
// in the same order, so which one runs changes speed, never bits. The
// package imports nothing from the repository.
package rowops
