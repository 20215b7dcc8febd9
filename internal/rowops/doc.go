// Package rowops holds the two row primitives the supernodal kernels
// spend their time in, once, for both callers: the multi-RHS sweeps of
// internal/native and the frontal factorization of internal/dense.
//
// A primitive updates m-wide rows of float64 with the elements of a
// column-major panel on the value plane F (float32 or float64, widened as
// it is loaded):
//
//   - Forward subtracts up to Block solved rows, scaled by panel elements,
//     from every target row. The forward sweep calls it for the rank-4
//     update below a block of panel columns (the solved rows m apart);
//     PartialCholesky calls it with one target row — a front column from
//     its diagonal down — for its rank-4 and rank-1 trailing updates (the
//     factored columns as solved rows, lda apart).
//   - Backward accumulates panel-weighted rows into one partial sum per
//     block column, skipping panel elements that are zero.
//
// Each primitive has a portable Go body (rows.go) and AVX2 assembly
// bodies per plane (rows_amd64.s), picked once at start-up from CPUID
// (rows_amd64.go). The m ≥ 2 Backward body takes the rows four at a
// time: a block column whose four panel elements are all non-zero loads
// and stores each chunk of its partial sum once for the four rows; a
// column with a zero among them, and the rows after the last full group,
// go one row at a time and skip the zeros. The assembly has a second body
// for m = 1, where a row is one entry: Forward puts four target rows in
// the lanes, Backward up to eight block columns (4 × 4 panel tiles
// transposed in registers). Every loop head of the m = 1 bodies and of
// the m ≥ 2 Backward body is 32-byte aligned. All bodies apply the same
// operations to every entry in the same order, so which one runs changes
// speed, never bits. The package imports nothing from the repository.
package rowops
