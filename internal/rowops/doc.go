// Package rowops holds the primitives the supernodal kernels spend their
// time in, once, for both callers: the sweeps of internal/native and the
// frontal factorization of internal/dense.
//
// The primitives work on rows of float64 — one-entry rows for Forward and
// Backward, m-wide rows for the panel and block primitives — and the
// elements of a column-major panel on the value plane F (float32 or
// float64, widened as it is loaded):
//
//   - ForwardPanel is the forward sweep over one panel of up to Panel
//     columns of a supernode at m ≥ 2: it solves the panel's triangle in
//     ascending column order and applies the solved rows to every row
//     below. The sweep calls it once per panel at m ≥ 2.
//   - BackwardBlock is the back-substitution of one block of up to Sums
//     columns: it accumulates one partial sum per block column over every
//     row below the block, skipping panel elements that are zero, and
//     solves the block's triangle. The sweep calls it once per block at
//     m ≥ 2.
//   - Forward subtracts up to Block solved entries, scaled by panel
//     elements, from every target entry, and Backward accumulates up to
//     Sums partial sums as BackwardBlock does, on one-entry rows. The
//     sweep calls them at m = 1, Forward for the rank-4 update below a
//     block of panel columns. PartialCholesky calls Forward on a front
//     column from its diagonal down — n one-entry rows, the group's
//     solved entries lda apart — for the rank-4 and rank-1 updates inside
//     a panel of pivots.
//   - Schur, float64 only, applies up to Panel/Block rank-4 groups of
//     factored front columns to the lower triangle of the trailing block,
//     the Schur-complement update PartialCholesky makes once per panel of
//     Panel pivots. A column skips a group whose four multipliers are all
//     zero, as the unblocked loop does.
//   - Add, float64 and plane-independent like Schur, adds one run of
//     entries into another: the sweep's forward extend-add at m ≥ 2, one
//     call per run of consecutive child rows landing on consecutive front
//     rows, and one for the right-hand side's rows.
//
// Each primitive has a portable Go body (rows.go) and an AVX2 assembly
// body (rows_amd64.s, per plane except Schur and Add), picked once at start-up
// from CPUID (rows_amd64.go). The assembly bodies keep a tile of results
// in YMM registers across a whole call. ForwardPanel holds a row's chunks
// (groups of 8, 4 or 2 four-lane chunks) across the panel's columns, or,
// for a last single chunk, a tile of 8 rows; BackwardBlock holds one
// column's partial sums (groups of 8, 4 or 2 chunks) across 128 rows, or,
// for a last single chunk, the block's 8 partial sums. A row's last
// chunk goes through a lane mask (VMASKMOVPD), so a ragged m costs no
// scalar tail. Forward puts four target entries in the lanes, Backward
// up to eight block columns (4 × 4 panel tiles transposed in registers).
// The Schur body holds an 8-row × 4-column tile of the trailing block in
// eight YMM registers across all the panel's pivots. Every loop head of
// the assembly is 32-byte aligned. All bodies apply the same operations
// to every entry in the same order, so which one runs changes speed,
// never bits. The package imports nothing from the repository.
package rowops
