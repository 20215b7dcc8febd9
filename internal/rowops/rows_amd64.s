//go:build !purego

#include "textflag.h"

// AVX2 bodies of the primitives of rows.go, once per value plane (Schur
// is float64 only). Only separate multiplies and adds/subtracts, applied
// to each entry in the order the portable bodies use: no fused
// multiply-add, no reassociation, no horizontal sum. Every loop head is
// 32-byte aligned.

// BCAST puts one panel element, widened to float64, in every lane of Y;
// LOAD puts it in the low lane of X.
#define BCAST64(addr, X, Y) VBROADCASTSD addr, Y
#define BCAST32(addr, X, Y) VCVTSS2SD addr, X, X; VBROADCASTSD X, Y
#define LOAD64(addr, X) VMOVSD addr, X
#define LOAD32(addr, X) VCVTSS2SD addr, X, X

// LOADV puts four consecutive panel elements, widened to float64, in the
// lanes of Y.
#define LOADV64(addr, Y) VMOVUPD addr, Y
#define LOADV32(addr, Y) VCVTPS2PD addr, Y

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The Forward and Backward bodies, on one-entry rows: the sweep's at one
// right-hand side, and a front column's in dense.PartialCholesky. They
// put neighbouring entries (Forward) or block columns (Backward) in the
// lanes, still applying every entry's updates in the portable bodies'
// order. Every loop head is aligned to 32 bytes, so a loop's speed does
// not depend on where the linker happens to place it.

// COLV64/COLV32 load the panel elements of the column at P, rows AX on,
// widened: four into a Y register, two into an X register. COL1 loads one;
// GATHER puts row AX of the four columns P0..P3 in the lanes of Y0.
#define COLV64(P, R) VMOVUPD (P)(AX*8), R
#define COLV32(P, R) VCVTPS2PD (P)(AX*4), R
#define COL1_64(P, R) VMOVSD (P)(AX*8), R
#define COL1_32(P, R) VCVTSS2SD (P)(AX*4), R, R
#define GATHER64(P0, P1, P2, P3) \
	VMOVSD  (P0)(AX*8), X0       \
	VMOVHPD (P1)(AX*8), X0, X0   \
	VMOVSD  (P2)(AX*8), X1       \
	VMOVHPD (P3)(AX*8), X1, X1   \
	VINSERTF128 $1, X1, Y0, Y0
#define GATHER32(P0, P1, P2, P3)          \
	VMOVSS    (P0)(AX*4), X0              \
	VINSERTPS $0x10, (P1)(AX*4), X0, X0   \
	VINSERTPS $0x20, (P2)(AX*4), X0, X0   \
	VINSERTPS $0x30, (P3)(AX*4), X0, X0   \
	VCVTPS2PD X0, Y0

// UPDATE1 is one lane group of forward target entries at entry index AX:
// the entries lose l0·x0, then l1·x1, l2·x2, l3·x3 as far as the block is
// wide, the panel elements coming from the columns at DX, R11, R13, BX
// and the solved entries broadcast in S0..S3.
#define UPDATE1(COL, MOV, MUL, SUB, R0, R1, S0, S1, S2, S3, done) \
	MOV  (DI)(AX*8), R0 \
	COL(DX, R1)         \
	MUL  S0, R1, R1     \
	SUB  R1, R0, R0     \
	CMPQ R10, $2        \
	JLT  done           \
	COL(R11, R1)        \
	MUL  S1, R1, R1     \
	SUB  R1, R0, R0     \
	CMPQ R10, $3        \
	JLT  done           \
	COL(R13, R1)        \
	MUL  S2, R1, R1     \
	SUB  R1, R0, R0     \
	CMPQ R10, $4        \
	JLT  done           \
	COL(BX, R1)         \
	MUL  S3, R1, R1     \
	SUB  R1, R0, R0     \
done:                   \
	MOV  R0, (DI)(AX*8)

// FORWARD_ROWS1 is the Forward body: four target entries per YMM, each
// loaded once, updated by the block's columns in ascending order and
// stored once; then an XMM pair if rows&2 and a scalar if rows&1. It
// expects DI = the first target entry, CX = rows (> 0), SI = the first
// solved entry, AX = their stride xs, DX = the first panel column at the
// first target row, R8 = ns, R10 = block width (1..4).
#define FORWARD_ROWS1(COLV, COL1, LSHIFT) \
	SHLQ $3, AX                   \
	VBROADCASTSD (SI), Y12        \
	CMPQ R10, $2                  \
	JLT  cols                     \
	VBROADCASTSD (SI)(AX*1), Y13  \
	CMPQ R10, $3                  \
	JLT  cols                     \
	VBROADCASTSD (SI)(AX*2), Y14  \
	CMPQ R10, $4                  \
	JLT  cols                     \
	LEAQ (AX)(AX*2), R11          \
	VBROADCASTSD (SI)(R11*1), Y15 \
cols:                             \
	SHLQ LSHIFT, R8               \
	LEAQ (DX)(R8*1), R11          \
	LEAQ (R11)(R8*1), R13         \
	LEAQ (R13)(R8*1), BX          \
	MOVQ CX, R14                  \
	ANDQ $~3, R14                 \
	XORQ AX, AX                   \
	CMPQ R14, $0                  \
	JEQ  pair                     \
	PCALIGN $32                   \
quad:                             \
	UPDATE1(COLV, VMOVUPD, VMULPD, VSUBPD, Y0, Y1, Y12, Y13, Y14, Y15, quadstore) \
	ADDQ $4, AX                   \
	CMPQ AX, R14                  \
	JLT  quad                     \
pair:                             \
	TESTQ $2, CX                  \
	JZ   single                   \
	UPDATE1(COLV, VMOVUPD, VMULPD, VSUBPD, X0, X1, X12, X13, X14, X15, pairstore) \
	ADDQ $2, AX                   \
single:                           \
	TESTQ $1, CX                  \
	JZ   end                      \
	UPDATE1(COL1, VMOVSD, VMULSD, VSUBSD, X0, X1, X12, X13, X14, X15, singlestore) \
end:                              \
	VZEROUPPER

// STEP adds one row of four block columns, lanes L, into the partial sums
// ACC: ACC += L·v[AX+OFF/8] lane by lane, except that a lane whose panel
// element compares equal to zero (NEQ_UQ against Y15, which holds −0 in
// every lane, is true for NaN) keeps its partial sum bit for bit: its
// product is replaced by −0, and adding −0 returns any number unchanged,
// −0, infinities and NaN included. The blend is off the partial sums'
// dependency chain, which is then one VADDPD per row.
#define STEP(L, OFF, ACC)              \
	VBROADCASTSD OFF(SI)(AX*8), Y4     \
	VMULPD       Y4, L, Y4             \
	VCMPPD       $4, Y15, L, Y5        \
	VBLENDVPD    Y5, Y4, Y15, Y4       \
	VADDPD       Y4, ACC, ACC

// TILE adds rows AX..AX+3 of the four columns at P0..P3 into ACC: four
// column loads, a 4×4 transpose in registers, then the rows in ascending
// order, so each lane walks its own column downwards.
#define TILE(COLV, P0, P1, P2, P3, ACC) \
	COLV(P0, Y0)                  \
	COLV(P1, Y1)                  \
	COLV(P2, Y2)                  \
	COLV(P3, Y3)                  \
	VUNPCKLPD  Y1, Y0, Y4         \
	VUNPCKHPD  Y1, Y0, Y5         \
	VUNPCKLPD  Y3, Y2, Y6         \
	VUNPCKHPD  Y3, Y2, Y7         \
	VPERM2F128 $0x20, Y6, Y4, Y0  \
	VPERM2F128 $0x20, Y7, Y5, Y1  \
	VPERM2F128 $0x31, Y6, Y4, Y2  \
	VPERM2F128 $0x31, Y7, Y5, Y3  \
	STEP(Y0, 0, ACC)              \
	STEP(Y1, 8, ACC)              \
	STEP(Y2, 16, ACC)             \
	STEP(Y3, 24, ACC)

// ACCIN loads the partial sums of one group of four block columns from B
// into Y (X its low half), as many as the block is wide (K1..K3 are the
// widths below which the second, third, fourth are absent); the lanes
// beyond stay zero. ACCOUT stores the same lanes back.
#define ACCIN(B, K1, K2, K3, X, Y, ins, done) \
	VMOVSD  (B), X             \
	CMPQ    R10, K1            \
	JLE     done               \
	VMOVHPD 8(B), X, X         \
	CMPQ    R10, K2            \
	JLE     done               \
	VMOVSD  16(B), X6         \
	CMPQ    R10, K3            \
	JLE     ins                \
	VMOVHPD 24(B), X6, X6    \
ins:                           \
	VINSERTF128 $1, X6, Y, Y  \
done:

#define ACCOUT(B, K1, K2, K3, X, Y, done) \
	VMOVSD  X, (B)               \
	CMPQ    R10, K1              \
	JLE     done                 \
	VMOVHPD X, 8(B)              \
	CMPQ    R10, K2              \
	JLE     done                 \
	VEXTRACTF128 $1, Y, X6      \
	VMOVSD  X6, 16(B)           \
	CMPQ    R10, K3              \
	JLE     done                 \
	VMOVHPD X6, 24(B)           \
done:

// BACKWARD_ROWS1 is the Backward body: the block's partial sums sit in
// the lanes of Y8 (columns 0..3) and Y9 (columns 4..7), and the rows go
// four at a time through TILE, then one at a time through GATHER. A lane
// beyond the block reads the block's last column again and is never
// stored. It first prefetches the 2 KiB below the block: the backward
// sweep takes the blocks of a panel, and the panels of the factor, in
// descending address order, which the hardware prefetchers (trained by
// the ascending walk down each column) do not anticipate. It expects
// DI = the block's partial sums, R10 = bw (1..8), SI = the first row
// beyond the block, CX = rows (> 0), DX = the block's first panel column
// at that row, R8 = ns.
#define BACKWARD_ROWS1(COLV, GATHER, LSHIFT) \
	MOVQ DX, R12                  \
	LEAQ -2048(DX), R9            \
	PCALIGN $32                   \
prefetch:                         \
	SUBQ $64, R12                 \
	PREFETCHT0 (R12)              \
	CMPQ R12, R9                  \
	JHI  prefetch                 \
	ACCIN(DI, $1, $2, $3, X8, Y8, insA, doneA) \
	CMPQ R10, $4                  \
	JLE  cols                     \
	LEAQ 32(DI), AX               \
	ACCIN(AX, $5, $6, $7, X9, Y9, insB, doneB) \
cols:                             \
	SHLQ LSHIFT, R8               \
	LEAQ (DX)(R8*1), BX           \
	CMPQ R10, $1                  \
	CMOVQLE DX, BX                \
	LEAQ (BX)(R8*1), R11          \
	CMPQ R10, $2                  \
	CMOVQLE BX, R11               \
	LEAQ (R11)(R8*1), R12         \
	CMPQ R10, $3                  \
	CMOVQLE R11, R12              \
	LEAQ (R12)(R8*1), R13         \
	CMPQ R10, $4                  \
	CMOVQLE R12, R13              \
	LEAQ (R13)(R8*1), R14         \
	CMPQ R10, $5                  \
	CMOVQLE R13, R14              \
	LEAQ (R14)(R8*1), R9          \
	CMPQ R10, $6                  \
	CMOVQLE R14, R9               \
	LEAQ (R9)(R8*1), R8           \
	CMPQ R10, $7                  \
	CMOVQLE R9, R8                \
	VPCMPEQQ Y15, Y15, Y15        \
	VPSLLQ $63, Y15, Y15          \
	SUBQ $4, CX                   \
	XORQ AX, AX                   \
	CMPQ AX, CX                   \
	JGT  rest                     \
	PCALIGN $32                   \
tile:                             \
	TILE(COLV, DX, BX, R11, R12, Y8) \
	CMPQ R10, $4                  \
	JLE  tilenext                 \
	TILE(COLV, R13, R14, R9, R8, Y9) \
tilenext:                         \
	ADDQ $4, AX                   \
	CMPQ AX, CX                   \
	JLE  tile                     \
rest:                             \
	ADDQ $4, CX                   \
	CMPQ AX, CX                   \
	JGE  store                    \
	PCALIGN $32                   \
row:                              \
	GATHER(DX, BX, R11, R12)      \
	STEP(Y0, 0, Y8)               \
	CMPQ R10, $4                  \
	JLE  rownext                  \
	GATHER(R13, R14, R9, R8)      \
	STEP(Y0, 0, Y9)               \
rownext:                          \
	INCQ AX                       \
	CMPQ AX, CX                   \
	JLT  row                      \
store:                            \
	ACCOUT(DI, $1, $2, $3, X8, Y8, outA) \
	CMPQ R10, $4                  \
	JLE  end                      \
	LEAQ 32(DI), AX               \
	ACCOUT(AX, $5, $6, $7, X9, Y9, outB) \
end:                              \
	VZEROUPPER

// func forwardRows1AVX2f64(dst *float64, rows int, x *float64, xs int, l *float64, ns, bw int)
TEXT ·forwardRows1AVX2f64(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ rows+8(FP), CX
	MOVQ x+16(FP), SI
	MOVQ xs+24(FP), AX
	MOVQ l+32(FP), DX
	MOVQ ns+40(FP), R8
	MOVQ bw+48(FP), R10
	FORWARD_ROWS1(COLV64, COL1_64, $3)
	RET

// func forwardRows1AVX2f32(dst *float64, rows int, x *float64, xs int, l *float32, ns, bw int)
TEXT ·forwardRows1AVX2f32(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ rows+8(FP), CX
	MOVQ x+16(FP), SI
	MOVQ xs+24(FP), AX
	MOVQ l+32(FP), DX
	MOVQ ns+40(FP), R8
	MOVQ bw+48(FP), R10
	FORWARD_ROWS1(COLV32, COL1_32, $2)
	RET

// func backwardRows1AVX2f64(acc *float64, bw int, v *float64, rows int, l *float64, ns int)
TEXT ·backwardRows1AVX2f64(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ bw+8(FP), R10
	MOVQ v+16(FP), SI
	MOVQ rows+24(FP), CX
	MOVQ l+32(FP), DX
	MOVQ ns+40(FP), R8
	BACKWARD_ROWS1(COLV64, GATHER64, $3)
	RET

// func backwardRows1AVX2f32(acc *float64, bw int, v *float64, rows int, l *float32, ns int)
TEXT ·backwardRows1AVX2f32(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ bw+8(FP), R10
	MOVQ v+16(FP), SI
	MOVQ rows+24(FP), CX
	MOVQ l+32(FP), DX
	MOVQ ns+40(FP), R8
	BACKWARD_ROWS1(COLV32, GATHER32, $2)
	RET

// The Schur body: the trailing update of a frontal factorization, float64
// only. The trailing block goes in quads of four columns (the last
// n mod 4 columns, at most three rows tall, stay with the Go wrapper),
// each quad in tiles of 8 rows × 4 columns: eight YMM accumulators,
// loaded once, updated by every pivot of the panel in ascending order —
// one column load per pivot, broadcast multipliers, separate VMULPD and
// VSUBPD — and stored once. The tile that starts a quad (its columns
// begin at their diagonals, so the upper triangle above them is masked
// out) and the one that ends it (fewer than 8 rows left) load and store
// through row masks. Each group of four pivots goes one of three ways,
// decided once per quad: every column takes it (the plain update), no
// column does (nothing to do), or some do — then each product is ANDed
// with its column's mask for the group, all ones or zero, and subtracting
// +0 returns any number unchanged, −0, infinities and NaN included. So a
// skipped group leaves its entries' bits as the portable body does, and
// every other entry gets the same products in the same order.

// schurRowMask holds eight all-ones quadwords, then eight zero ones: the
// four at byte offset 64−8k have lanes 0..k−1 set, for k in 0..4.
DATA schurRowMask<>+0(SB)/8, $0xffffffffffffffff
DATA schurRowMask<>+8(SB)/8, $0xffffffffffffffff
DATA schurRowMask<>+16(SB)/8, $0xffffffffffffffff
DATA schurRowMask<>+24(SB)/8, $0xffffffffffffffff
DATA schurRowMask<>+32(SB)/8, $0xffffffffffffffff
DATA schurRowMask<>+40(SB)/8, $0xffffffffffffffff
DATA schurRowMask<>+48(SB)/8, $0xffffffffffffffff
DATA schurRowMask<>+56(SB)/8, $0xffffffffffffffff
DATA schurRowMask<>+64(SB)/8, $0
DATA schurRowMask<>+72(SB)/8, $0
DATA schurRowMask<>+80(SB)/8, $0
DATA schurRowMask<>+88(SB)/8, $0
DATA schurRowMask<>+96(SB)/8, $0
DATA schurRowMask<>+104(SB)/8, $0
DATA schurRowMask<>+112(SB)/8, $0
DATA schurRowMask<>+120(SB)/8, $0
GLOBL schurRowMask<>(SB), RODATA|NOPTR, $128

// SCHUR_COLS_PLAIN and SCHUR_COLS_MASKED load the current pivot column's
// eight rows of the tile (at byte offset BX from R11) into Y8 and Y9; the
// masked load leaves out the rows past the block's last (Y14, Y15).
#define SCHUR_COLS_PLAIN \
	VMOVUPD (R11)(BX*1), Y8 \
	VMOVUPD 32(R11)(BX*1), Y9

#define SCHUR_COLS_MASKED \
	VMASKMOVPD (R11)(BX*1), Y14, Y8 \
	VMASKMOVPD 32(R11)(BX*1), Y15, Y9

// SCHUR_COL is one pivot's update of one tile column: its multiplier at
// byte offset OFF from R11 is broadcast and scales the pivot column's
// eight rows (Y8, Y9), which the column's accumulators LO and HI lose.
#define SCHUR_COL(OFF, LO, HI) \
	VBROADCASTSD OFF(R11), Y10 \
	VMULPD       Y8, Y10, Y11  \
	VSUBPD       Y11, LO, LO   \
	VMULPD       Y9, Y10, Y12  \
	VSUBPD       Y12, HI, HI

// SCHUR_MCOL is SCHUR_COL for a group some columns skip: the product is
// ANDed with the column's mask for the group (at byte offset OFF from
// R13).
#define SCHUR_MCOL(OFF, LO, HI) \
	VBROADCASTSD OFF(R11), Y10 \
	VBROADCASTSD OFF(R13), Y11 \
	VMULPD       Y8, Y10, Y12  \
	VANDPD       Y11, Y12, Y12 \
	VSUBPD       Y12, LO, LO   \
	VMULPD       Y9, Y10, Y12  \
	VANDPD       Y11, Y12, Y12 \
	VSUBPD       Y12, HI, HI

// SCHUR_PIVOT applies the pivot column at R11 to the four tile columns
// through COL, and steps R11 to the next pivot column.
#define SCHUR_PIVOT(COLS, COL) \
	COLS                  \
	COL(0, Y0, Y1)        \
	COL(8, Y2, Y3)        \
	COL(16, Y4, Y5)       \
	COL(24, Y6, Y7)       \
	ADDQ R8, R11

// SCHUR_GROUPS applies the panel's groups to the tile in the
// accumulators, each group the way the quad's mask table says (its kind,
// at byte offset 32 of the group's row, is the lane bits of its masks).
#define SCHUR_GROUPS(COLS, group, mixed, skipped, next) \
	MOVQ    SI, R11                      \
	MOVQ    R10, R12                     \
	LEAQ    0(SP), R13                   \
	PCALIGN $32                          \
group:                                   \
	MOVQ    32(R13), AX                  \
	CMPQ    AX, $15                      \
	JNE     mixed                        \
	SCHUR_PIVOT(COLS, SCHUR_COL)         \
	SCHUR_PIVOT(COLS, SCHUR_COL)         \
	SCHUR_PIVOT(COLS, SCHUR_COL)         \
	SCHUR_PIVOT(COLS, SCHUR_COL)         \
	JMP     next                         \
mixed:                                   \
	TESTQ   AX, AX                       \
	JZ      skipped                      \
	SCHUR_PIVOT(COLS, SCHUR_MCOL)        \
	SCHUR_PIVOT(COLS, SCHUR_MCOL)        \
	SCHUR_PIVOT(COLS, SCHUR_MCOL)        \
	SCHUR_PIVOT(COLS, SCHUR_MCOL)        \
	JMP     next                         \
skipped:                                 \
	LEAQ    (R11)(R8*4), R11             \
next:                                    \
	ADDQ    $64, R13                     \
	DECQ    R12                          \
	JNZ     group

// func schurAVX2f64(dst *float64, ld, n int, p *float64, groups, quads int)
//
// dst is the block's first diagonal entry, p the panel's first column at
// the block's first row; the first quads·4 columns are updated. Registers:
// DI, R14, R15, DX the quad's four columns at its first diagonal entry;
// SI the panel at the quad's first row; R8 ld and R9 the quad's rows, in
// bytes; R10 groups; CX quads left; BX the tile's first row in bytes; R11
// the current pivot column, R12 groups left, R13 the current group's row
// of the mask table. The frame holds the table at 0, a 64-byte row per
// group: the four columns' masks (lane c all ones when column c takes the
// group), then the group's kind; and at 512, 544 and 576 the edge tile's
// row masks of columns 1..3.
TEXT ·schurAVX2f64(SB), NOSPLIT, $608-48
	MOVQ dst+0(FP), DI
	MOVQ ld+8(FP), R8
	MOVQ n+16(FP), R9
	MOVQ p+24(FP), SI
	MOVQ groups+32(FP), R10
	MOVQ quads+40(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	PCALIGN $32

quad:
	LEAQ (DI)(R8*1), R14
	LEAQ (R14)(R8*1), R15
	LEAQ (R15)(R8*1), DX

	// Which groups each column of the quad takes: its four multipliers in
	// a group are one row of four consecutive panel entries per pivot.
	VXORPD Y13, Y13, Y13
	MOVQ   SI, R11
	MOVQ   R10, R12
	LEAQ   0(SP), R13

skip:
	VCMPPD    $4, (R11), Y13, Y8
	ADDQ      R8, R11
	VCMPPD    $4, (R11), Y13, Y9
	VORPD     Y9, Y8, Y8
	ADDQ      R8, R11
	VCMPPD    $4, (R11), Y13, Y9
	VORPD     Y9, Y8, Y8
	ADDQ      R8, R11
	VCMPPD    $4, (R11), Y13, Y9
	VORPD     Y9, Y8, Y8
	ADDQ      R8, R11
	VMOVUPD   Y8, (R13)
	VMOVMSKPD Y8, AX
	MOVQ      AX, 32(R13)
	ADDQ      $64, R13
	DECQ      R12
	JNZ       skip
	XORQ      BX, BX
	PCALIGN   $32

tile:
	MOVQ  R9, AX
	SUBQ  BX, AX
	CMPQ  AX, $64
	JLT   edge
	TESTQ BX, BX
	JZ    edge

	// An inner tile: eight full rows below the quad's diagonal block.
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD (R14)(BX*1), Y2
	VMOVUPD 32(R14)(BX*1), Y3
	VMOVUPD (R15)(BX*1), Y4
	VMOVUPD 32(R15)(BX*1), Y5
	VMOVUPD (DX)(BX*1), Y6
	VMOVUPD 32(DX)(BX*1), Y7
	SCHUR_GROUPS(SCHUR_COLS_PLAIN, igroup, imixed, iskipped, inext)
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, (R14)(BX*1)
	VMOVUPD Y3, 32(R14)(BX*1)
	VMOVUPD Y4, (R15)(BX*1)
	VMOVUPD Y5, 32(R15)(BX*1)
	VMOVUPD Y6, (DX)(BX*1)
	VMOVUPD Y7, 32(DX)(BX*1)
	JMP     next

edge:
	// Row masks: Y14 the low four rows before the quad's last (AX bytes
	// are left), Y15 the high four.
	LEAQ    schurRowMask<>+64(SB), R13
	MOVQ    $32, R12
	CMPQ    AX, R12
	CMOVQLT AX, R12
	MOVQ    R13, R11
	SUBQ    R12, R11
	VMOVUPD (R11), Y14
	SUBQ    $32, AX
	XORQ    R12, R12
	CMPQ    AX, R12
	CMOVQLT R12, AX
	MOVQ    $32, R12
	CMPQ    AX, R12
	CMOVQGT R12, AX
	MOVQ    R13, R11
	SUBQ    AX, R11
	VMOVUPD (R11), Y15

	// In the quad's first tile, column c also leaves out its first c rows,
	// which lie above its diagonal.
	VMOVUPD Y14, 512(SP)
	VMOVUPD Y14, 544(SP)
	VMOVUPD Y14, 576(SP)
	TESTQ   BX, BX
	JNZ     eload
	VMOVUPD -8(R13), Y13
	VANDNPD Y14, Y13, Y13
	VMOVUPD Y13, 512(SP)
	VMOVUPD -16(R13), Y13
	VANDNPD Y14, Y13, Y13
	VMOVUPD Y13, 544(SP)
	VMOVUPD -24(R13), Y13
	VANDNPD Y14, Y13, Y13
	VMOVUPD Y13, 576(SP)

eload:
	VMASKMOVPD (DI)(BX*1), Y14, Y0
	VMASKMOVPD 32(DI)(BX*1), Y15, Y1
	VMOVUPD    512(SP), Y13
	VMASKMOVPD (R14)(BX*1), Y13, Y2
	VMASKMOVPD 32(R14)(BX*1), Y15, Y3
	VMOVUPD    544(SP), Y13
	VMASKMOVPD (R15)(BX*1), Y13, Y4
	VMASKMOVPD 32(R15)(BX*1), Y15, Y5
	VMOVUPD    576(SP), Y13
	VMASKMOVPD (DX)(BX*1), Y13, Y6
	VMASKMOVPD 32(DX)(BX*1), Y15, Y7
	SCHUR_GROUPS(SCHUR_COLS_MASKED, egroup, emixed, eskipped, enext)
	VMASKMOVPD Y0, Y14, (DI)(BX*1)
	VMASKMOVPD Y1, Y15, 32(DI)(BX*1)
	VMOVUPD    512(SP), Y13
	VMASKMOVPD Y2, Y13, (R14)(BX*1)
	VMASKMOVPD Y3, Y15, 32(R14)(BX*1)
	VMOVUPD    544(SP), Y13
	VMASKMOVPD Y4, Y13, (R15)(BX*1)
	VMASKMOVPD Y5, Y15, 32(R15)(BX*1)
	VMOVUPD    576(SP), Y13
	VMASKMOVPD Y6, Y13, (DX)(BX*1)
	VMASKMOVPD Y7, Y15, 32(DX)(BX*1)

next:
	ADDQ $64, BX
	CMPQ BX, R9
	JLT  tile
	LEAQ 32(DI)(R8*4), DI
	ADDQ $32, SI
	SUBQ $32, R9
	DECQ CX
	JNZ  quad
	VZEROUPPER
	RET

// The panel and block bodies: the sweeps at m ≥ 2, one call per panel of
// up to Panel columns forward and per block of up to Sums columns
// backward. Both take a row in 4-lane chunks, the last one through the
// lane mask in Y15 (VMASKMOVPD), so a ragged m costs no scalar tail, and
// both keep a tile of partial results in Y0..Y7 across every column of
// the call: each element of the tile is loaded and stored once per call
// forward, once per group of 128 rows backward.
// The reciprocal pivots are computed once per call into the frame, with
// VDIVSD, as the portable body computes them.

// flagBytes spreads the four lane bits of a VMOVMSKPD result over four
// bytes: entry k has byte b set to bit b of k.
DATA flagBytes<>+0(SB)/4, $0x00000000
DATA flagBytes<>+4(SB)/4, $0x00000001
DATA flagBytes<>+8(SB)/4, $0x00000100
DATA flagBytes<>+12(SB)/4, $0x00000101
DATA flagBytes<>+16(SB)/4, $0x00010000
DATA flagBytes<>+20(SB)/4, $0x00010001
DATA flagBytes<>+24(SB)/4, $0x00010100
DATA flagBytes<>+28(SB)/4, $0x00010101
DATA flagBytes<>+32(SB)/4, $0x01000000
DATA flagBytes<>+36(SB)/4, $0x01000001
DATA flagBytes<>+40(SB)/4, $0x01000100
DATA flagBytes<>+44(SB)/4, $0x01000101
DATA flagBytes<>+48(SB)/4, $0x01010000
DATA flagBytes<>+52(SB)/4, $0x01010001
DATA flagBytes<>+56(SB)/4, $0x01010100
DATA flagBytes<>+60(SB)/4, $0x01010101
GLOBL flagBytes<>(SB), RODATA|NOPTR, $64

// RECIPROCALS stores 1/l[j·ns+j] for j in [0, COUNT) at 8j(SP): the
// pivots of the call's columns, widened by LOAD, from DX on (R8 = ns in
// bytes). It uses AX, BX, X9, X10 and X14.
#define RECIPROCALS(LOAD, LSIZE, COUNT, loop) \
	MOVQ $0x3FF0000000000000, AX  \
	MOVQ AX, X14                  \
	MOVQ DX, AX                   \
	XORQ BX, BX                   \
	PCALIGN $32                   \
loop:                                 \
	LOAD((AX), X9)                \
	VDIVSD X9, X14, X10           \
	VMOVSD X10, (SP)(BX*8)        \
	LEAQ LSIZE(AX)(R8*1), AX      \
	INCQ BX                       \
	CMPQ BX, COUNT                \
	JLT loop

// LASTMASK stores at OFF(SP) the lane mask of a row's last chunk (R9 = m
// in bytes): lanes 0..k−1 set for the k ≤ 4 entries it holds, from the
// ones-then-zeros table of the Schur body. It uses BX, R13 and Y14.
#define LASTMASK(OFF) \
	LEAQ -1(R9), R13                \
	ANDQ $31, R13                   \
	INCQ R13                        \
	LEAQ schurRowMask<>+64(SB), BX  \
	SUBQ R13, BX                    \
	VMOVUPD (BX), Y14               \
	VMOVUPD Y14, OFF(SP)

// CHUNKMASK puts in Y15 the lane mask of the chunk at byte offset CO:
// all ones, or the last chunk's mask from OFF(SP).
#define CHUNKMASK(CO, TMP, OFF, full) \
	VPCMPEQQ Y15, Y15, Y15  \
	LEAQ 32(CO), TMP        \
	CMPQ TMP, R9            \
	JLT full                \
	VMOVUPD OFF(SP), Y15    \
full:

// MOVE8 loads (or stores) the chunk in Y0..Y7 from (to) rows P, P+R9, …
// as far as LIMIT, a register no greater than 8, allows; it steps P.
#define MOVE8(MOV, P, LIMIT, done) \
	MOV(P, Y0)      \
	CMPQ LIMIT, $1  \
	JLE done        \
	ADDQ R9, P      \
	MOV(P, Y1)      \
	CMPQ LIMIT, $2  \
	JLE done        \
	ADDQ R9, P      \
	MOV(P, Y2)      \
	CMPQ LIMIT, $3  \
	JLE done        \
	ADDQ R9, P      \
	MOV(P, Y3)      \
	CMPQ LIMIT, $4  \
	JLE done        \
	ADDQ R9, P      \
	MOV(P, Y4)      \
	CMPQ LIMIT, $5  \
	JLE done        \
	ADDQ R9, P      \
	MOV(P, Y5)      \
	CMPQ LIMIT, $6  \
	JLE done        \
	ADDQ R9, P      \
	MOV(P, Y6)      \
	CMPQ LIMIT, $7  \
	JLE done        \
	ADDQ R9, P      \
	MOV(P, Y7)      \
done:
// MOVE8F is MOVE8 for all eight rows.
#define MOVE8F(MOV, P) \
	MOV(P, Y0)  \
	ADDQ R9, P  \
	MOV(P, Y1)  \
	ADDQ R9, P  \
	MOV(P, Y2)  \
	ADDQ R9, P  \
	MOV(P, Y3)  \
	ADDQ R9, P  \
	MOV(P, Y4)  \
	ADDQ R9, P  \
	MOV(P, Y5)  \
	ADDQ R9, P  \
	MOV(P, Y6)  \
	ADDQ R9, P  \
	MOV(P, Y7)
#define MLOAD(P, R) VMASKMOVPD (P), Y15, R
#define MSTORE(P, R) VMASKMOVPD R, Y15, (P)

// ROWPTR sets P to row SI of v (DI) at the chunk offset R11.
#define ROWPTR(P) \
	MOVQ SI, P   \
	IMULQ R9, P  \
	ADDQ DI, P   \
	ADDQ R11, P

// FSTEP subtracts from ACC the solved chunk in Y8 scaled by the panel
// element at ADDR.
#define FSTEP(BCAST, ADDR, ACC) \
	BCAST(ADDR, X9, Y9)   \
	VMULPD Y8, Y9, Y10    \
	VSUBPD Y10, ACC, ACC

// FTRI solves the tile's part of the panel's triangle in registers:
// row k of the tile (Yk) is scaled by its reciprocal pivot (at 8k(BX))
// and then scales column i0+k (at R13, rows i0.. on) into the rows below
// it, for k ascending while i0+k is a panel column (AX = pw − i0 of them).
#define FTRI(BCAST, LSIZE, done) \
	VBROADCASTSD 0(BX), Y9         \
	VMULPD Y9, Y0, Y0              \
	BCAST((1*LSIZE)(R13), X9, Y9)  \
	VMULPD Y0, Y9, Y10             \
	VSUBPD Y10, Y1, Y1             \
	BCAST((2*LSIZE)(R13), X9, Y9)  \
	VMULPD Y0, Y9, Y10             \
	VSUBPD Y10, Y2, Y2             \
	BCAST((3*LSIZE)(R13), X9, Y9)  \
	VMULPD Y0, Y9, Y10             \
	VSUBPD Y10, Y3, Y3             \
	BCAST((4*LSIZE)(R13), X9, Y9)  \
	VMULPD Y0, Y9, Y10             \
	VSUBPD Y10, Y4, Y4             \
	BCAST((5*LSIZE)(R13), X9, Y9)  \
	VMULPD Y0, Y9, Y10             \
	VSUBPD Y10, Y5, Y5             \
	BCAST((6*LSIZE)(R13), X9, Y9)  \
	VMULPD Y0, Y9, Y10             \
	VSUBPD Y10, Y6, Y6             \
	BCAST((7*LSIZE)(R13), X9, Y9)  \
	VMULPD Y0, Y9, Y10             \
	VSUBPD Y10, Y7, Y7             \
	ADDQ R8, R13                   \
	CMPQ AX, $1                    \
	JLE done                       \
	VBROADCASTSD 8(BX), Y9         \
	VMULPD Y9, Y1, Y1              \
	BCAST((2*LSIZE)(R13), X9, Y9)  \
	VMULPD Y1, Y9, Y10             \
	VSUBPD Y10, Y2, Y2             \
	BCAST((3*LSIZE)(R13), X9, Y9)  \
	VMULPD Y1, Y9, Y10             \
	VSUBPD Y10, Y3, Y3             \
	BCAST((4*LSIZE)(R13), X9, Y9)  \
	VMULPD Y1, Y9, Y10             \
	VSUBPD Y10, Y4, Y4             \
	BCAST((5*LSIZE)(R13), X9, Y9)  \
	VMULPD Y1, Y9, Y10             \
	VSUBPD Y10, Y5, Y5             \
	BCAST((6*LSIZE)(R13), X9, Y9)  \
	VMULPD Y1, Y9, Y10             \
	VSUBPD Y10, Y6, Y6             \
	BCAST((7*LSIZE)(R13), X9, Y9)  \
	VMULPD Y1, Y9, Y10             \
	VSUBPD Y10, Y7, Y7             \
	ADDQ R8, R13                   \
	CMPQ AX, $2                    \
	JLE done                       \
	VBROADCASTSD 16(BX), Y9        \
	VMULPD Y9, Y2, Y2              \
	BCAST((3*LSIZE)(R13), X9, Y9)  \
	VMULPD Y2, Y9, Y10             \
	VSUBPD Y10, Y3, Y3             \
	BCAST((4*LSIZE)(R13), X9, Y9)  \
	VMULPD Y2, Y9, Y10             \
	VSUBPD Y10, Y4, Y4             \
	BCAST((5*LSIZE)(R13), X9, Y9)  \
	VMULPD Y2, Y9, Y10             \
	VSUBPD Y10, Y5, Y5             \
	BCAST((6*LSIZE)(R13), X9, Y9)  \
	VMULPD Y2, Y9, Y10             \
	VSUBPD Y10, Y6, Y6             \
	BCAST((7*LSIZE)(R13), X9, Y9)  \
	VMULPD Y2, Y9, Y10             \
	VSUBPD Y10, Y7, Y7             \
	ADDQ R8, R13                   \
	CMPQ AX, $3                    \
	JLE done                       \
	VBROADCASTSD 24(BX), Y9        \
	VMULPD Y9, Y3, Y3              \
	BCAST((4*LSIZE)(R13), X9, Y9)  \
	VMULPD Y3, Y9, Y10             \
	VSUBPD Y10, Y4, Y4             \
	BCAST((5*LSIZE)(R13), X9, Y9)  \
	VMULPD Y3, Y9, Y10             \
	VSUBPD Y10, Y5, Y5             \
	BCAST((6*LSIZE)(R13), X9, Y9)  \
	VMULPD Y3, Y9, Y10             \
	VSUBPD Y10, Y6, Y6             \
	BCAST((7*LSIZE)(R13), X9, Y9)  \
	VMULPD Y3, Y9, Y10             \
	VSUBPD Y10, Y7, Y7             \
	ADDQ R8, R13                   \
	CMPQ AX, $4                    \
	JLE done                       \
	VBROADCASTSD 32(BX), Y9        \
	VMULPD Y9, Y4, Y4              \
	BCAST((5*LSIZE)(R13), X9, Y9)  \
	VMULPD Y4, Y9, Y10             \
	VSUBPD Y10, Y5, Y5             \
	BCAST((6*LSIZE)(R13), X9, Y9)  \
	VMULPD Y4, Y9, Y10             \
	VSUBPD Y10, Y6, Y6             \
	BCAST((7*LSIZE)(R13), X9, Y9)  \
	VMULPD Y4, Y9, Y10             \
	VSUBPD Y10, Y7, Y7             \
	ADDQ R8, R13                   \
	CMPQ AX, $5                    \
	JLE done                       \
	VBROADCASTSD 40(BX), Y9        \
	VMULPD Y9, Y5, Y5              \
	BCAST((6*LSIZE)(R13), X9, Y9)  \
	VMULPD Y5, Y9, Y10             \
	VSUBPD Y10, Y6, Y6             \
	BCAST((7*LSIZE)(R13), X9, Y9)  \
	VMULPD Y5, Y9, Y10             \
	VSUBPD Y10, Y7, Y7             \
	ADDQ R8, R13                   \
	CMPQ AX, $6                    \
	JLE done                       \
	VBROADCASTSD 48(BX), Y9        \
	VMULPD Y9, Y6, Y6              \
	BCAST((7*LSIZE)(R13), X9, Y9)  \
	VMULPD Y6, Y9, Y10             \
	VSUBPD Y10, Y7, Y7             \
	ADDQ R8, R13                   \
	CMPQ AX, $7                    \
	JLE done                       \
	VBROADCASTSD 56(BX), Y9        \
	VMULPD Y9, Y7, Y7              \
done:

// FROWS is the forward pass of one group of C chunks (C = 2, 4 or 8) at
// byte offset R11 over all n rows, one row at a time (SI): the row's C
// chunks are loaded into Y0..Y(C−1), lose the solved rows
// 0..min(i, pw)−1 (R12 counts them; R13 walks the panel at row i, R14 the
// solved rows) — one broadcast panel element per column, then per chunk a
// VMULPD with the solved chunk in memory and a VSUBPD — are scaled by
// the row's reciprocal pivot inside the triangle, and stored. Rows
// outside the triangle do not depend on each other, so their loops
// overlap in the out-of-order core. Each column step prefetches the
// panel eight rows on: the row-by-row walk across the panel's columns
// does not train the hardware prefetcher.
#define FROWS8(BCAST, LSIZE) \
	VPCMPEQQ Y15, Y15, Y15       \
	LEAQ 256(R11), BX            \
	CMPQ BX, R9                  \
	JLT c8full                   \
	VMOVUPD 256(SP), Y15         \
c8full:                              \
	XORQ SI, SI                  \
	PCALIGN $32                  \
c8row:                               \
	ROWPTR(BX)                   \
	VMOVUPD 0(BX), Y0            \
	VMOVUPD 32(BX), Y1           \
	VMOVUPD 64(BX), Y2           \
	VMOVUPD 96(BX), Y3           \
	VMOVUPD 128(BX), Y4          \
	VMOVUPD 160(BX), Y5          \
	VMOVUPD 192(BX), Y6          \
	VMASKMOVPD 224(BX), Y15, Y7  \
	MOVQ SI, R12                 \
	CMPQ R12, R10                \
	CMOVQGT R10, R12             \
	LEAQ (DX)(SI*LSIZE), R13     \
	LEAQ (DI)(R11*1), R14        \
	TESTQ R12, R12               \
	JZ c8scale                   \
	PCALIGN $32                  \
c8col:                               \
	BCAST((R13), X9, Y9)         \
	PREFETCHT0 64(R13)           \
	VMULPD 0(R14), Y9, Y10       \
	VSUBPD Y10, Y0, Y0           \
	VMULPD 32(R14), Y9, Y10      \
	VSUBPD Y10, Y1, Y1           \
	VMULPD 64(R14), Y9, Y10      \
	VSUBPD Y10, Y2, Y2           \
	VMULPD 96(R14), Y9, Y10      \
	VSUBPD Y10, Y3, Y3           \
	VMULPD 128(R14), Y9, Y10     \
	VSUBPD Y10, Y4, Y4           \
	VMULPD 160(R14), Y9, Y10     \
	VSUBPD Y10, Y5, Y5           \
	VMULPD 192(R14), Y9, Y10     \
	VSUBPD Y10, Y6, Y6           \
	VMULPD 224(R14), Y9, Y10     \
	VSUBPD Y10, Y7, Y7           \
	ADDQ R8, R13                 \
	ADDQ R9, R14                 \
	DECQ R12                     \
	JNZ c8col                    \
c8scale:                             \
	CMPQ SI, R10                 \
	JGE c8store                  \
	VBROADCASTSD (SP)(SI*8), Y9  \
	VMULPD Y9, Y0, Y0            \
	VMULPD Y9, Y1, Y1            \
	VMULPD Y9, Y2, Y2            \
	VMULPD Y9, Y3, Y3            \
	VMULPD Y9, Y4, Y4            \
	VMULPD Y9, Y5, Y5            \
	VMULPD Y9, Y6, Y6            \
	VMULPD Y9, Y7, Y7            \
c8store:                             \
	VMOVUPD Y0, 0(BX)            \
	VMOVUPD Y1, 32(BX)           \
	VMOVUPD Y2, 64(BX)           \
	VMOVUPD Y3, 96(BX)           \
	VMOVUPD Y4, 128(BX)          \
	VMOVUPD Y5, 160(BX)          \
	VMOVUPD Y6, 192(BX)          \
	VMASKMOVPD Y7, Y15, 224(BX)  \
	INCQ SI                      \
	CMPQ SI, CX                  \
	JLT c8row
#define FROWS4(BCAST, LSIZE) \
	VPCMPEQQ Y15, Y15, Y15       \
	LEAQ 128(R11), BX            \
	CMPQ BX, R9                  \
	JLT c4full                   \
	VMOVUPD 256(SP), Y15         \
c4full:                              \
	XORQ SI, SI                  \
	PCALIGN $32                  \
c4row:                               \
	ROWPTR(BX)                   \
	VMOVUPD 0(BX), Y0            \
	VMOVUPD 32(BX), Y1           \
	VMOVUPD 64(BX), Y2           \
	VMASKMOVPD 96(BX), Y15, Y3   \
	MOVQ SI, R12                 \
	CMPQ R12, R10                \
	CMOVQGT R10, R12             \
	LEAQ (DX)(SI*LSIZE), R13     \
	LEAQ (DI)(R11*1), R14        \
	TESTQ R12, R12               \
	JZ c4scale                   \
	PCALIGN $32                  \
c4col:                               \
	BCAST((R13), X9, Y9)         \
	PREFETCHT0 64(R13)           \
	VMULPD 0(R14), Y9, Y10       \
	VSUBPD Y10, Y0, Y0           \
	VMULPD 32(R14), Y9, Y10      \
	VSUBPD Y10, Y1, Y1           \
	VMULPD 64(R14), Y9, Y10      \
	VSUBPD Y10, Y2, Y2           \
	VMULPD 96(R14), Y9, Y10      \
	VSUBPD Y10, Y3, Y3           \
	ADDQ R8, R13                 \
	ADDQ R9, R14                 \
	DECQ R12                     \
	JNZ c4col                    \
c4scale:                             \
	CMPQ SI, R10                 \
	JGE c4store                  \
	VBROADCASTSD (SP)(SI*8), Y9  \
	VMULPD Y9, Y0, Y0            \
	VMULPD Y9, Y1, Y1            \
	VMULPD Y9, Y2, Y2            \
	VMULPD Y9, Y3, Y3            \
c4store:                             \
	VMOVUPD Y0, 0(BX)            \
	VMOVUPD Y1, 32(BX)           \
	VMOVUPD Y2, 64(BX)           \
	VMASKMOVPD Y3, Y15, 96(BX)   \
	INCQ SI                      \
	CMPQ SI, CX                  \
	JLT c4row
#define FROWS2(BCAST, LSIZE) \
	VPCMPEQQ Y15, Y15, Y15       \
	LEAQ 64(R11), BX             \
	CMPQ BX, R9                  \
	JLT c2full                   \
	VMOVUPD 256(SP), Y15         \
c2full:                              \
	XORQ SI, SI                  \
	PCALIGN $32                  \
c2row:                               \
	ROWPTR(BX)                   \
	VMOVUPD 0(BX), Y0            \
	VMASKMOVPD 32(BX), Y15, Y1   \
	MOVQ SI, R12                 \
	CMPQ R12, R10                \
	CMOVQGT R10, R12             \
	LEAQ (DX)(SI*LSIZE), R13     \
	LEAQ (DI)(R11*1), R14        \
	TESTQ R12, R12               \
	JZ c2scale                   \
	PCALIGN $32                  \
c2col:                               \
	BCAST((R13), X9, Y9)         \
	PREFETCHT0 64(R13)           \
	VMULPD 0(R14), Y9, Y10       \
	VSUBPD Y10, Y0, Y0           \
	VMULPD 32(R14), Y9, Y10      \
	VSUBPD Y10, Y1, Y1           \
	ADDQ R8, R13                 \
	ADDQ R9, R14                 \
	DECQ R12                     \
	JNZ c2col                    \
c2scale:                             \
	CMPQ SI, R10                 \
	JGE c2store                  \
	VBROADCASTSD (SP)(SI*8), Y9  \
	VMULPD Y9, Y0, Y0            \
	VMULPD Y9, Y1, Y1            \
c2store:                             \
	VMOVUPD Y0, 0(BX)            \
	VMASKMOVPD Y1, Y15, 32(BX)   \
	INCQ SI                      \
	CMPQ SI, CX                  \
	JLT c2row

// FORWARD_PANEL expects DI = v, CX = n, R9 = m, DX = l, R8 = ns, R10 =
// pw; LOAD, BCAST, LSHIFT and LSIZE fit the panel's element type. The
// frame holds the reciprocal pivots at 0, the last chunk's mask at 256
// and the single chunk's offset at 288.
//
// A row's chunks go in groups of 8, 4 and 2 through FROWS while at least
// two are left. A last single chunk (every chunk when m ≤ 4) has the rows
// in tiles of eight instead (SI = the tile's first row, i0): the tile's
// chunk is loaded into Y0..Y7, loses the solved rows 0..min(i0, pw)−1,
// one broadcast panel element and one VMULPD and VSUBPD per row and
// column, then, in a tile that starts inside the triangle, solves its
// own rows of it (FTRI), and is stored; the last n mod 8 rows go one at
// a time the same way. The solved rows are read whole chunks at a time:
// the lanes past a row's end are the next row's entries (it exists, since
// a later row is being updated), and their products are never stored.
#define FORWARD_PANEL(LOAD, BCAST, LSHIFT, LSIZE) \
	SHLQ LSHIFT, R8                       \
	SHLQ $3, R9                           \
	RECIPROCALS(LOAD, LSIZE, R10, recip)  \
	LASTMASK(256)                         \
	XORQ R11, R11                         \
	PCALIGN $32                           \
group:                                        \
	MOVQ R9, AX                           \
	SUBQ R11, AX                          \
	CMPQ AX, $224                         \
	JLE group4                            \
	FROWS8(BCAST, LSIZE)                  \
	ADDQ $256, R11                        \
	JMP group                             \
group4:                                       \
	CMPQ AX, $96                          \
	JLE group2                            \
	FROWS4(BCAST, LSIZE)                  \
	ADDQ $128, R11                        \
	JMP group                             \
group2:                                       \
	CMPQ AX, $32                          \
	JLE group1                            \
	FROWS2(BCAST, LSIZE)                  \
	ADDQ $64, R11                         \
	JMP group                             \
group1:                                       \
	TESTQ AX, AX                          \
	JLE done                              \
	MOVQ R11, 288(SP)                     \
	XORQ SI, SI                           \
	PCALIGN $32                           \
tile:                                         \
	LEAQ 8(SI), AX                        \
	CMPQ AX, CX                           \
	JGT tail                              \
	MOVQ 288(SP), R11                     \
	PCALIGN $32                           \
tchunk:                                       \
	CHUNKMASK(R11, AX, 256, tfull)        \
	ROWPTR(BX)                            \
	MOVE8F(MLOAD, BX)                     \
	MOVQ SI, R12                          \
	CMPQ R12, R10                         \
	CMOVQGT R10, R12                      \
	LEAQ (DX)(SI*LSIZE), R13              \
	LEAQ (DI)(R11*1), R14                 \
	TESTQ R12, R12                        \
	JZ tri                                \
	PCALIGN $32                           \
tcol:                                         \
	VMOVUPD (R14), Y8                     \
	FSTEP(BCAST, (0*LSIZE)(R13), Y0)      \
	FSTEP(BCAST, (1*LSIZE)(R13), Y1)      \
	FSTEP(BCAST, (2*LSIZE)(R13), Y2)      \
	FSTEP(BCAST, (3*LSIZE)(R13), Y3)      \
	FSTEP(BCAST, (4*LSIZE)(R13), Y4)      \
	FSTEP(BCAST, (5*LSIZE)(R13), Y5)      \
	FSTEP(BCAST, (6*LSIZE)(R13), Y6)      \
	FSTEP(BCAST, (7*LSIZE)(R13), Y7)      \
	ADDQ R8, R13                          \
	ADDQ R9, R14                          \
	DECQ R12                              \
	JNZ tcol                              \
tri:                                          \
	MOVQ R10, AX                          \
	SUBQ SI, AX                           \
	JLE tstore                            \
	LEAQ (SP)(SI*8), BX                   \
	FTRI(BCAST, LSIZE, tsolved)           \
tstore:                                       \
	ROWPTR(BX)                            \
	MOVE8F(MSTORE, BX)                    \
	ADDQ $32, R11                         \
	CMPQ R11, R9                          \
	JLT tchunk                            \
	ADDQ $8, SI                           \
	JMP tile                              \
	PCALIGN $32                           \
tail:                                         \
	CMPQ SI, CX                           \
	JGE done                              \
	MOVQ 288(SP), R11                     \
	PCALIGN $32                           \
rchunk:                                       \
	CHUNKMASK(R11, AX, 256, rfull)        \
	ROWPTR(BX)                            \
	VMASKMOVPD (BX), Y15, Y0              \
	MOVQ SI, R12                          \
	CMPQ R12, R10                         \
	CMOVQGT R10, R12                      \
	LEAQ (DX)(SI*LSIZE), R13              \
	LEAQ (DI)(R11*1), R14                 \
	TESTQ R12, R12                        \
	JZ rscale                             \
	PCALIGN $32                           \
rcol:                                         \
	VMOVUPD (R14), Y8                     \
	FSTEP(BCAST, (R13), Y0)               \
	ADDQ R8, R13                          \
	ADDQ R9, R14                          \
	DECQ R12                              \
	JNZ rcol                              \
rscale:                                       \
	CMPQ SI, R10                          \
	JGE rstore                            \
	VBROADCASTSD (SP)(SI*8), Y9           \
	VMULPD Y9, Y0, Y0                     \
rstore:                                       \
	VMASKMOVPD Y0, Y15, (BX)              \
	ADDQ $32, R11                         \
	CMPQ R11, R9                          \
	JLT rchunk                            \
	INCQ SI                               \
	JMP tail                              \
done:                                         \
	VZEROUPPER

// BPLAIN adds to ACC the row chunk in Y8 scaled by the panel element at
// ADDR; BMASKED does the same unless the element compares equal to zero
// (NEQ_UQ against −0 in Y14 is true for NaN), when the product is
// replaced by −0, which returns any partial sum unchanged, bit for bit.
#define BPLAIN(BCAST, ADDR, ACC) \
	BCAST(ADDR, X9, Y9)   \
	VMULPD Y8, Y9, Y10    \
	VADDPD Y10, ACC, ACC
#define BMASKED(BCAST, ADDR, ACC) \
	BCAST(ADDR, X9, Y9)           \
	VMULPD Y8, Y9, Y10            \
	VCMPPD $4, Y14, Y9, Y11       \
	VBLENDVPD Y11, Y10, Y14, Y10  \
	VADDPD Y10, ACC, ACC

// BROW adds one row (its chunk in Y8) to the block's partial sums in
// Y0..Y7 through STEP, column j's element at R14 + j·ns (BX = R14 + 4·ns,
// AX = 3·ns).
#define BROW(STEP, BCAST, done) \
	STEP(BCAST, (R14), Y0)        \
	CMPQ R10, $1                  \
	JLE done                      \
	STEP(BCAST, (R14)(R8*1), Y1)  \
	CMPQ R10, $2                  \
	JLE done                      \
	STEP(BCAST, (R14)(R8*2), Y2)  \
	CMPQ R10, $3                  \
	JLE done                      \
	STEP(BCAST, (R14)(AX*1), Y3)  \
	CMPQ R10, $4                  \
	JLE done                      \
	STEP(BCAST, (BX), Y4)         \
	CMPQ R10, $5                  \
	JLE done                      \
	STEP(BCAST, (BX)(R8*1), Y5)   \
	CMPQ R10, $6                  \
	JLE done                      \
	STEP(BCAST, (BX)(R8*2), Y6)   \
	CMPQ R10, $7                  \
	JLE done                      \
	STEP(BCAST, (BX)(AX*1), Y7)   \
done:
// BROW8 is BROW for a block of all Sums columns, without the width
// checks.
#define BROW8(STEP, BCAST, done) \
	STEP(BCAST, (R14), Y0)        \
	STEP(BCAST, (R14)(R8*1), Y1)  \
	STEP(BCAST, (R14)(R8*2), Y2)  \
	STEP(BCAST, (R14)(AX*1), Y3)  \
	STEP(BCAST, (BX), Y4)         \
	STEP(BCAST, (BX)(R8*1), Y5)   \
	STEP(BCAST, (BX)(R8*2), Y6)   \
	STEP(BCAST, (BX)(AX*1), Y7)

// BROWS adds the group's rows to the partial sums in Y0..Y7: R13 walks
// the rows' chunks, R14 and BX the panel, R12 counts the rows.
#define BROWS(ROW, BCAST, LSIZE, row, dirty, pdone, mdone, next) \
	PCALIGN $32                 \
row:                                \
	VMASKMOVPD (R13), Y15, Y8   \
	CMPB 64(SP)(R12*1), $0      \
	JNE dirty                   \
	ROW(BPLAIN, BCAST, pdone)   \
	JMP next                    \
dirty:                              \
	ROW(BMASKED, BCAST, mdone)  \
next:                               \
	ADDQ R9, R13                \
	ADDQ $LSIZE, R14            \
	ADDQ $LSIZE, BX             \
	INCQ R12                    \
	CMPQ R12, 360(SP)           \
	JLT row

// BTRI solves the block's triangle in registers, Yj holding row j's
// chunk: for j descending, row j loses l[j·ns+i]·x_i for i ascending in
// (j, bw) and is scaled by its reciprocal pivot (at 8j(SP)). R13 starts
// at column 7 and steps back one column per j.
#define BTRI(BCAST, LSIZE, skip7, skip6, skip5, skip4, skip3, skip2, skip1, skip0, scale7, scale6, scale5, scale4, scale3, scale2, scale1, scale0) \
	CMPQ R10, $7                   \
	JLE skip7                      \
scale7:                                \
	VBROADCASTSD 56(SP), Y9        \
	VMULPD Y9, Y7, Y7              \
skip7:                                 \
	SUBQ R8, R13                   \
	CMPQ R10, $6                   \
	JLE skip6                      \
	CMPQ R10, $7                   \
	JLE scale6                     \
	BCAST((7*LSIZE)(R13), X9, Y9)  \
	VMULPD Y7, Y9, Y10             \
	VSUBPD Y10, Y6, Y6             \
scale6:                                \
	VBROADCASTSD 48(SP), Y9        \
	VMULPD Y9, Y6, Y6              \
skip6:                                 \
	SUBQ R8, R13                   \
	CMPQ R10, $5                   \
	JLE skip5                      \
	CMPQ R10, $6                   \
	JLE scale5                     \
	BCAST((6*LSIZE)(R13), X9, Y9)  \
	VMULPD Y6, Y9, Y10             \
	VSUBPD Y10, Y5, Y5             \
	CMPQ R10, $7                   \
	JLE scale5                     \
	BCAST((7*LSIZE)(R13), X9, Y9)  \
	VMULPD Y7, Y9, Y10             \
	VSUBPD Y10, Y5, Y5             \
scale5:                                \
	VBROADCASTSD 40(SP), Y9        \
	VMULPD Y9, Y5, Y5              \
skip5:                                 \
	SUBQ R8, R13                   \
	CMPQ R10, $4                   \
	JLE skip4                      \
	CMPQ R10, $5                   \
	JLE scale4                     \
	BCAST((5*LSIZE)(R13), X9, Y9)  \
	VMULPD Y5, Y9, Y10             \
	VSUBPD Y10, Y4, Y4             \
	CMPQ R10, $6                   \
	JLE scale4                     \
	BCAST((6*LSIZE)(R13), X9, Y9)  \
	VMULPD Y6, Y9, Y10             \
	VSUBPD Y10, Y4, Y4             \
	CMPQ R10, $7                   \
	JLE scale4                     \
	BCAST((7*LSIZE)(R13), X9, Y9)  \
	VMULPD Y7, Y9, Y10             \
	VSUBPD Y10, Y4, Y4             \
scale4:                                \
	VBROADCASTSD 32(SP), Y9        \
	VMULPD Y9, Y4, Y4              \
skip4:                                 \
	SUBQ R8, R13                   \
	CMPQ R10, $3                   \
	JLE skip3                      \
	CMPQ R10, $4                   \
	JLE scale3                     \
	BCAST((4*LSIZE)(R13), X9, Y9)  \
	VMULPD Y4, Y9, Y10             \
	VSUBPD Y10, Y3, Y3             \
	CMPQ R10, $5                   \
	JLE scale3                     \
	BCAST((5*LSIZE)(R13), X9, Y9)  \
	VMULPD Y5, Y9, Y10             \
	VSUBPD Y10, Y3, Y3             \
	CMPQ R10, $6                   \
	JLE scale3                     \
	BCAST((6*LSIZE)(R13), X9, Y9)  \
	VMULPD Y6, Y9, Y10             \
	VSUBPD Y10, Y3, Y3             \
	CMPQ R10, $7                   \
	JLE scale3                     \
	BCAST((7*LSIZE)(R13), X9, Y9)  \
	VMULPD Y7, Y9, Y10             \
	VSUBPD Y10, Y3, Y3             \
scale3:                                \
	VBROADCASTSD 24(SP), Y9        \
	VMULPD Y9, Y3, Y3              \
skip3:                                 \
	SUBQ R8, R13                   \
	CMPQ R10, $2                   \
	JLE skip2                      \
	CMPQ R10, $3                   \
	JLE scale2                     \
	BCAST((3*LSIZE)(R13), X9, Y9)  \
	VMULPD Y3, Y9, Y10             \
	VSUBPD Y10, Y2, Y2             \
	CMPQ R10, $4                   \
	JLE scale2                     \
	BCAST((4*LSIZE)(R13), X9, Y9)  \
	VMULPD Y4, Y9, Y10             \
	VSUBPD Y10, Y2, Y2             \
	CMPQ R10, $5                   \
	JLE scale2                     \
	BCAST((5*LSIZE)(R13), X9, Y9)  \
	VMULPD Y5, Y9, Y10             \
	VSUBPD Y10, Y2, Y2             \
	CMPQ R10, $6                   \
	JLE scale2                     \
	BCAST((6*LSIZE)(R13), X9, Y9)  \
	VMULPD Y6, Y9, Y10             \
	VSUBPD Y10, Y2, Y2             \
	CMPQ R10, $7                   \
	JLE scale2                     \
	BCAST((7*LSIZE)(R13), X9, Y9)  \
	VMULPD Y7, Y9, Y10             \
	VSUBPD Y10, Y2, Y2             \
scale2:                                \
	VBROADCASTSD 16(SP), Y9        \
	VMULPD Y9, Y2, Y2              \
skip2:                                 \
	SUBQ R8, R13                   \
	CMPQ R10, $1                   \
	JLE skip1                      \
	CMPQ R10, $2                   \
	JLE scale1                     \
	BCAST((2*LSIZE)(R13), X9, Y9)  \
	VMULPD Y2, Y9, Y10             \
	VSUBPD Y10, Y1, Y1             \
	CMPQ R10, $3                   \
	JLE scale1                     \
	BCAST((3*LSIZE)(R13), X9, Y9)  \
	VMULPD Y3, Y9, Y10             \
	VSUBPD Y10, Y1, Y1             \
	CMPQ R10, $4                   \
	JLE scale1                     \
	BCAST((4*LSIZE)(R13), X9, Y9)  \
	VMULPD Y4, Y9, Y10             \
	VSUBPD Y10, Y1, Y1             \
	CMPQ R10, $5                   \
	JLE scale1                     \
	BCAST((5*LSIZE)(R13), X9, Y9)  \
	VMULPD Y5, Y9, Y10             \
	VSUBPD Y10, Y1, Y1             \
	CMPQ R10, $6                   \
	JLE scale1                     \
	BCAST((6*LSIZE)(R13), X9, Y9)  \
	VMULPD Y6, Y9, Y10             \
	VSUBPD Y10, Y1, Y1             \
	CMPQ R10, $7                   \
	JLE scale1                     \
	BCAST((7*LSIZE)(R13), X9, Y9)  \
	VMULPD Y7, Y9, Y10             \
	VSUBPD Y10, Y1, Y1             \
scale1:                                \
	VBROADCASTSD 8(SP), Y9         \
	VMULPD Y9, Y1, Y1              \
skip1:                                 \
	SUBQ R8, R13                   \
	CMPQ R10, $0                   \
	JLE skip0                      \
	CMPQ R10, $1                   \
	JLE scale0                     \
	BCAST((1*LSIZE)(R13), X9, Y9)  \
	VMULPD Y1, Y9, Y10             \
	VSUBPD Y10, Y0, Y0             \
	CMPQ R10, $2                   \
	JLE scale0                     \
	BCAST((2*LSIZE)(R13), X9, Y9)  \
	VMULPD Y2, Y9, Y10             \
	VSUBPD Y10, Y0, Y0             \
	CMPQ R10, $3                   \
	JLE scale0                     \
	BCAST((3*LSIZE)(R13), X9, Y9)  \
	VMULPD Y3, Y9, Y10             \
	VSUBPD Y10, Y0, Y0             \
	CMPQ R10, $4                   \
	JLE scale0                     \
	BCAST((4*LSIZE)(R13), X9, Y9)  \
	VMULPD Y4, Y9, Y10             \
	VSUBPD Y10, Y0, Y0             \
	CMPQ R10, $5                   \
	JLE scale0                     \
	BCAST((5*LSIZE)(R13), X9, Y9)  \
	VMULPD Y5, Y9, Y10             \
	VSUBPD Y10, Y0, Y0             \
	CMPQ R10, $6                   \
	JLE scale0                     \
	BCAST((6*LSIZE)(R13), X9, Y9)  \
	VMULPD Y6, Y9, Y10             \
	VSUBPD Y10, Y0, Y0             \
	CMPQ R10, $7                   \
	JLE scale0                     \
	BCAST((7*LSIZE)(R13), X9, Y9)  \
	VMULPD Y7, Y9, Y10             \
	VSUBPD Y10, Y0, Y0             \
scale0:                                \
	VBROADCASTSD 0(SP), Y9         \
	VMULPD Y9, Y0, Y0              \
skip0:                                 \
	SUBQ R8, R13

// ZERO8 sets the partial sums Y0..Y7 to +0.
#define ZERO8 \
	VXORPD Y0, Y0, Y0  \
	VXORPD Y1, Y1, Y1  \
	VXORPD Y2, Y2, Y2  \
	VXORPD Y3, Y3, Y3  \
	VXORPD Y4, Y4, Y4  \
	VXORPD Y5, Y5, Y5  \
	VXORPD Y6, Y6, Y6  \
	VXORPD Y7, Y7, Y7

// BCOLS is the backward pass of one group of C chunks (C = 2, 4 or 8) at
// byte offset R11 over the current group of rows, one block column at a
// time (BX): the column's partial sums are loaded into Y0..Y(C−1) (+0 for
// the first group), gain the group's rows in ascending order — a row
// whose panel element is ±0 (its bits shifted left by one are zero) is
// skipped by a branch, any other adds one broadcast element times each
// chunk of the row, a VMULPD with the chunk in memory and a VADDPD — and
// are stored into acc. The rows are read whole chunks at a time, the
// lanes past a row's end from the next row, except the block's last row,
// whose last chunk is read through the mask in Y15.
#define BCOLS8(ZEROTEST, BCAST, LSIZE) \
	VPCMPEQQ Y15, Y15, Y15         \
	LEAQ 256(R11), BX              \
	CMPQ BX, R9                    \
	JLT bc8full                    \
	VMOVUPD 320(SP), Y15           \
bc8full:                               \
	XORQ BX, BX                    \
	PCALIGN $32                    \
bc8col:                                \
	MOVQ 352(SP), R12              \
	CMPQ R12, R10                  \
	JNE bc8load                    \
	VXORPD Y0, Y0, Y0              \
	VXORPD Y1, Y1, Y1              \
	VXORPD Y2, Y2, Y2              \
	VXORPD Y3, Y3, Y3              \
	VXORPD Y4, Y4, Y4              \
	VXORPD Y5, Y5, Y5              \
	VXORPD Y6, Y6, Y6              \
	VXORPD Y7, Y7, Y7              \
	JMP bc8sum                     \
bc8load:                               \
	MOVQ BX, R13                   \
	IMULQ R9, R13                  \
	ADDQ DI, R13                   \
	ADDQ R11, R13                  \
	VMOVUPD 0(R13), Y0             \
	VMOVUPD 32(R13), Y1            \
	VMOVUPD 64(R13), Y2            \
	VMOVUPD 96(R13), Y3            \
	VMOVUPD 128(R13), Y4           \
	VMOVUPD 160(R13), Y5           \
	VMOVUPD 192(R13), Y6           \
	VMASKMOVPD 224(R13), Y15, Y7   \
bc8sum:                                \
	MOVQ BX, R14                   \
	IMULQ R8, R14                  \
	ADDQ DX, R14                   \
	LEAQ (R14)(R12*LSIZE), R14     \
	MOVQ R12, R13                  \
	IMULQ R9, R13                  \
	ADDQ SI, R13                   \
	ADDQ R11, R13                  \
	MOVQ 360(SP), R12              \
	ADDQ 352(SP), R12              \
	CMPQ R12, 368(SP)              \
	MOVQ 360(SP), R12              \
	JNE bc8rows                    \
	DECQ R12                       \
bc8rows:                               \
	TESTQ R12, R12                 \
	JZ bc8last                     \
	PCALIGN $32                    \
bc8row:                                \
	ZEROTEST((R14), AX)            \
	JZ bc8skip                     \
	BCAST((R14), X9, Y9)           \
	VMULPD 0(R13), Y9, Y10         \
	VADDPD Y10, Y0, Y0             \
	VMULPD 32(R13), Y9, Y10        \
	VADDPD Y10, Y1, Y1             \
	VMULPD 64(R13), Y9, Y10        \
	VADDPD Y10, Y2, Y2             \
	VMULPD 96(R13), Y9, Y10        \
	VADDPD Y10, Y3, Y3             \
	VMULPD 128(R13), Y9, Y10       \
	VADDPD Y10, Y4, Y4             \
	VMULPD 160(R13), Y9, Y10       \
	VADDPD Y10, Y5, Y5             \
	VMULPD 192(R13), Y9, Y10       \
	VADDPD Y10, Y6, Y6             \
	VMULPD 224(R13), Y9, Y10       \
	VADDPD Y10, Y7, Y7             \
bc8skip:                               \
	ADDQ R9, R13                   \
	ADDQ $LSIZE, R14               \
	DECQ R12                       \
	JNZ bc8row                     \
bc8last:                               \
	MOVQ 360(SP), R12              \
	ADDQ 352(SP), R12              \
	CMPQ R12, 368(SP)              \
	JNE bc8store                   \
	ZEROTEST((R14), AX)            \
	JZ bc8store                    \
	BCAST((R14), X9, Y9)           \
	VMULPD 0(R13), Y9, Y10         \
	VADDPD Y10, Y0, Y0             \
	VMULPD 32(R13), Y9, Y10        \
	VADDPD Y10, Y1, Y1             \
	VMULPD 64(R13), Y9, Y10        \
	VADDPD Y10, Y2, Y2             \
	VMULPD 96(R13), Y9, Y10        \
	VADDPD Y10, Y3, Y3             \
	VMULPD 128(R13), Y9, Y10       \
	VADDPD Y10, Y4, Y4             \
	VMULPD 160(R13), Y9, Y10       \
	VADDPD Y10, Y5, Y5             \
	VMULPD 192(R13), Y9, Y10       \
	VADDPD Y10, Y6, Y6             \
	VMASKMOVPD 224(R13), Y15, Y11  \
	VMULPD Y11, Y9, Y10            \
	VADDPD Y10, Y7, Y7             \
bc8store:                              \
	MOVQ BX, R13                   \
	IMULQ R9, R13                  \
	ADDQ DI, R13                   \
	ADDQ R11, R13                  \
	VMOVUPD Y0, 0(R13)             \
	VMOVUPD Y1, 32(R13)            \
	VMOVUPD Y2, 64(R13)            \
	VMOVUPD Y3, 96(R13)            \
	VMOVUPD Y4, 128(R13)           \
	VMOVUPD Y5, 160(R13)           \
	VMOVUPD Y6, 192(R13)           \
	VMASKMOVPD Y7, Y15, 224(R13)   \
	INCQ BX                        \
	CMPQ BX, R10                   \
	JLT bc8col
#define BCOLS4(ZEROTEST, BCAST, LSIZE) \
	VPCMPEQQ Y15, Y15, Y15        \
	LEAQ 128(R11), BX             \
	CMPQ BX, R9                   \
	JLT bc4full                   \
	VMOVUPD 320(SP), Y15          \
bc4full:                              \
	XORQ BX, BX                   \
	PCALIGN $32                   \
bc4col:                               \
	MOVQ 352(SP), R12             \
	CMPQ R12, R10                 \
	JNE bc4load                   \
	VXORPD Y0, Y0, Y0             \
	VXORPD Y1, Y1, Y1             \
	VXORPD Y2, Y2, Y2             \
	VXORPD Y3, Y3, Y3             \
	JMP bc4sum                    \
bc4load:                              \
	MOVQ BX, R13                  \
	IMULQ R9, R13                 \
	ADDQ DI, R13                  \
	ADDQ R11, R13                 \
	VMOVUPD 0(R13), Y0            \
	VMOVUPD 32(R13), Y1           \
	VMOVUPD 64(R13), Y2           \
	VMASKMOVPD 96(R13), Y15, Y3   \
bc4sum:                               \
	MOVQ BX, R14                  \
	IMULQ R8, R14                 \
	ADDQ DX, R14                  \
	LEAQ (R14)(R12*LSIZE), R14    \
	MOVQ R12, R13                 \
	IMULQ R9, R13                 \
	ADDQ SI, R13                  \
	ADDQ R11, R13                 \
	MOVQ 360(SP), R12             \
	ADDQ 352(SP), R12             \
	CMPQ R12, 368(SP)             \
	MOVQ 360(SP), R12             \
	JNE bc4rows                   \
	DECQ R12                      \
bc4rows:                              \
	TESTQ R12, R12                \
	JZ bc4last                    \
	PCALIGN $32                   \
bc4row:                               \
	ZEROTEST((R14), AX)           \
	JZ bc4skip                    \
	BCAST((R14), X9, Y9)          \
	VMULPD 0(R13), Y9, Y10        \
	VADDPD Y10, Y0, Y0            \
	VMULPD 32(R13), Y9, Y10       \
	VADDPD Y10, Y1, Y1            \
	VMULPD 64(R13), Y9, Y10       \
	VADDPD Y10, Y2, Y2            \
	VMULPD 96(R13), Y9, Y10       \
	VADDPD Y10, Y3, Y3            \
bc4skip:                              \
	ADDQ R9, R13                  \
	ADDQ $LSIZE, R14              \
	DECQ R12                      \
	JNZ bc4row                    \
bc4last:                              \
	MOVQ 360(SP), R12             \
	ADDQ 352(SP), R12             \
	CMPQ R12, 368(SP)             \
	JNE bc4store                  \
	ZEROTEST((R14), AX)           \
	JZ bc4store                   \
	BCAST((R14), X9, Y9)          \
	VMULPD 0(R13), Y9, Y10        \
	VADDPD Y10, Y0, Y0            \
	VMULPD 32(R13), Y9, Y10       \
	VADDPD Y10, Y1, Y1            \
	VMULPD 64(R13), Y9, Y10       \
	VADDPD Y10, Y2, Y2            \
	VMASKMOVPD 96(R13), Y15, Y11  \
	VMULPD Y11, Y9, Y10           \
	VADDPD Y10, Y3, Y3            \
bc4store:                             \
	MOVQ BX, R13                  \
	IMULQ R9, R13                 \
	ADDQ DI, R13                  \
	ADDQ R11, R13                 \
	VMOVUPD Y0, 0(R13)            \
	VMOVUPD Y1, 32(R13)           \
	VMOVUPD Y2, 64(R13)           \
	VMASKMOVPD Y3, Y15, 96(R13)   \
	INCQ BX                       \
	CMPQ BX, R10                  \
	JLT bc4col
#define BCOLS2(ZEROTEST, BCAST, LSIZE) \
	VPCMPEQQ Y15, Y15, Y15        \
	LEAQ 64(R11), BX              \
	CMPQ BX, R9                   \
	JLT bc2full                   \
	VMOVUPD 320(SP), Y15          \
bc2full:                              \
	XORQ BX, BX                   \
	PCALIGN $32                   \
bc2col:                               \
	MOVQ 352(SP), R12             \
	CMPQ R12, R10                 \
	JNE bc2load                   \
	VXORPD Y0, Y0, Y0             \
	VXORPD Y1, Y1, Y1             \
	JMP bc2sum                    \
bc2load:                              \
	MOVQ BX, R13                  \
	IMULQ R9, R13                 \
	ADDQ DI, R13                  \
	ADDQ R11, R13                 \
	VMOVUPD 0(R13), Y0            \
	VMASKMOVPD 32(R13), Y15, Y1   \
bc2sum:                               \
	MOVQ BX, R14                  \
	IMULQ R8, R14                 \
	ADDQ DX, R14                  \
	LEAQ (R14)(R12*LSIZE), R14    \
	MOVQ R12, R13                 \
	IMULQ R9, R13                 \
	ADDQ SI, R13                  \
	ADDQ R11, R13                 \
	MOVQ 360(SP), R12             \
	ADDQ 352(SP), R12             \
	CMPQ R12, 368(SP)             \
	MOVQ 360(SP), R12             \
	JNE bc2rows                   \
	DECQ R12                      \
bc2rows:                              \
	TESTQ R12, R12                \
	JZ bc2last                    \
	PCALIGN $32                   \
bc2row:                               \
	ZEROTEST((R14), AX)           \
	JZ bc2skip                    \
	BCAST((R14), X9, Y9)          \
	VMULPD 0(R13), Y9, Y10        \
	VADDPD Y10, Y0, Y0            \
	VMULPD 32(R13), Y9, Y10       \
	VADDPD Y10, Y1, Y1            \
bc2skip:                              \
	ADDQ R9, R13                  \
	ADDQ $LSIZE, R14              \
	DECQ R12                      \
	JNZ bc2row                    \
bc2last:                              \
	MOVQ 360(SP), R12             \
	ADDQ 352(SP), R12             \
	CMPQ R12, 368(SP)             \
	JNE bc2store                  \
	ZEROTEST((R14), AX)           \
	JZ bc2store                   \
	BCAST((R14), X9, Y9)          \
	VMULPD 0(R13), Y9, Y10        \
	VADDPD Y10, Y0, Y0            \
	VMASKMOVPD 32(R13), Y15, Y11  \
	VMULPD Y11, Y9, Y10           \
	VADDPD Y10, Y1, Y1            \
bc2store:                             \
	MOVQ BX, R13                  \
	IMULQ R9, R13                 \
	ADDQ DI, R13                  \
	ADDQ R11, R13                 \
	VMOVUPD Y0, 0(R13)            \
	VMASKMOVPD Y1, Y15, 32(R13)   \
	INCQ BX                       \
	CMPQ BX, R10                  \
	JLT bc2col

// ZEROTEST64 and ZEROTEST32 set ZF when the panel element at ADDR is ±0.
#define ZEROTEST64(ADDR, R) MOVQ ADDR, R; ADDQ R, R
#define ZEROTEST32(ADDR, R) MOVL ADDR, R; ADDL R, R

// BACKWARD_BLOCK expects DI = acc, SI = v, CX = n, R9 = m, DX = l, R8 =
// ns, R10 = bw; LOAD, LOADV, ZEROTEST, BCAST, LSHIFT and LSIZE fit the
// panel's element type. The frame holds the reciprocal pivots at 0, one
// flag byte per row of the current group at 64, the last chunk's mask at
// 320, and the group's first row, its row count and n at 352, 360 and
// 368.
//
// The rows below the block go in groups of 128, small enough for the
// group's rows to stay in L1 across the block's columns. For each group a
// row's chunks go in groups of 8, 4 and 2 through BCOLS while at least
// two are left. A last single chunk (every chunk when m ≤ 4) goes through
// the block's columns at once instead: one flag per row says whether any
// of its bw panel elements compares equal to zero (four rows per VCMPPD;
// the rows after the last full four are flagged); the block's partial
// sums are loaded into Y0..Y7 (+0 for the first group), gain the group's
// rows in ascending order — one broadcast element, VMULPD and VADDPD per
// row and column, or on a flagged row the blend that skips a zero
// element — and are stored into acc. Last, chunk by chunk, the block's
// rows lose their partial sums and are solved (BTRI).
#define BACKWARD_BLOCK(LOAD, LOADV, ZEROTEST, BCAST, LSHIFT, LSIZE) \
	SHLQ LSHIFT, R8                                                                                                                                             \
	SHLQ $3, R9                                                                                                                                                 \
	RECIPROCALS(LOAD, LSIZE, R10, recip)                                                                                                                        \
	LASTMASK(320)                                                                                                                                               \
	VPCMPEQQ Y14, Y14, Y14                                                                                                                                      \
	VPSLLQ $63, Y14, Y14                                                                                                                                        \
	MOVQ CX, 368(SP)                                                                                                                                            \
	MOVQ R10, 352(SP)                                                                                                                                           \
	PCALIGN $32                                                                                                                                                 \
group:                                                                                                                                                              \
	MOVQ 352(SP), R12                                                                                                                                           \
	CMPQ R12, 368(SP)                                                                                                                                           \
	JGE final                                                                                                                                                   \
	MOVQ 368(SP), R13                                                                                                                                           \
	SUBQ R12, R13                                                                                                                                               \
	MOVQ $128, R14                                                                                                                                              \
	CMPQ R13, R14                                                                                                                                               \
	CMOVQGT R14, R13                                                                                                                                            \
	MOVQ R13, 360(SP)                                                                                                                                           \
	XORQ R11, R11                                                                                                                                               \
	PCALIGN $32                                                                                                                                                 \
cgroup:                                                                                                                                                             \
	MOVQ R9, R13                                                                                                                                                \
	SUBQ R11, R13                                                                                                                                               \
	CMPQ R13, $224                                                                                                                                              \
	JLE cgroup4                                                                                                                                                 \
	BCOLS8(ZEROTEST, BCAST, LSIZE)                                                                                                                              \
	ADDQ $256, R11                                                                                                                                              \
	JMP cgroup                                                                                                                                                  \
cgroup4:                                                                                                                                                            \
	CMPQ R13, $96                                                                                                                                               \
	JLE cgroup2                                                                                                                                                 \
	BCOLS4(ZEROTEST, BCAST, LSIZE)                                                                                                                              \
	ADDQ $128, R11                                                                                                                                              \
	JMP cgroup                                                                                                                                                  \
cgroup2:                                                                                                                                                            \
	CMPQ R13, $32                                                                                                                                               \
	JLE cgroup1                                                                                                                                                 \
	BCOLS2(ZEROTEST, BCAST, LSIZE)                                                                                                                              \
	ADDQ $64, R11                                                                                                                                               \
	JMP cgroup                                                                                                                                                  \
cgroup1:                                                                                                                                                            \
	TESTQ R13, R13                                                                                                                                              \
	JLE nextgroup                                                                                                                                               \
	LEAQ (R8)(R8*2), AX                                                                                                                                         \
	XORQ R12, R12                                                                                                                                               \
	PCALIGN $32                                                                                                                                                 \
quad:                                                                                                                                                               \
	LEAQ 4(R12), R13                                                                                                                                            \
	CMPQ R13, 360(SP)                                                                                                                                           \
	JGT flagtail                                                                                                                                                \
	MOVQ 352(SP), R13                                                                                                                                           \
	ADDQ R12, R13                                                                                                                                               \
	LEAQ (DX)(R13*LSIZE), R13                                                                                                                                   \
	MOVQ R10, R14                                                                                                                                               \
	VXORPD Y1, Y1, Y1                                                                                                                                           \
	PCALIGN $32                                                                                                                                                 \
qcol:                                                                                                                                                               \
	LOADV((R13), Y2)                                                                                                                                            \
	VCMPPD $0, Y14, Y2, Y2                                                                                                                                      \
	VORPD Y2, Y1, Y1                                                                                                                                            \
	ADDQ R8, R13                                                                                                                                                \
	DECQ R14                                                                                                                                                    \
	JNZ qcol                                                                                                                                                    \
	VMOVMSKPD Y1, R13                                                                                                                                           \
	LEAQ flagBytes<>(SB), R14                                                                                                                                   \
	MOVL (R14)(R13*4), R13                                                                                                                                      \
	MOVL R13, 64(SP)(R12*1)                                                                                                                                     \
	ADDQ $4, R12                                                                                                                                                \
	JMP quad                                                                                                                                                    \
	PCALIGN $32                                                                                                                                                 \
flagtail:                                                                                                                                                           \
	CMPQ R12, 360(SP)                                                                                                                                           \
	JGE chunk                                                                                                                                                   \
	MOVB $1, 64(SP)(R12*1)                                                                                                                                      \
	INCQ R12                                                                                                                                                    \
	JMP flagtail                                                                                                                                                \
chunk:                                                                                                                                                              \
	CHUNKMASK(R11, R13, 320, cfull)                                                                                                                             \
	MOVQ 352(SP), R12                                                                                                                                           \
	CMPQ R12, R10                                                                                                                                               \
	JNE accload                                                                                                                                                 \
	ZERO8                                                                                                                                                       \
	JMP rows                                                                                                                                                    \
accload:                                                                                                                                                            \
	LEAQ (DI)(R11*1), R13                                                                                                                                       \
	MOVE8(MLOAD, R13, R10, accin)                                                                                                                               \
rows:                                                                                                                                                               \
	MOVQ 352(SP), R13                                                                                                                                           \
	LEAQ (DX)(R13*LSIZE), R14                                                                                                                                   \
	LEAQ (R14)(R8*4), BX                                                                                                                                        \
	IMULQ R9, R13                                                                                                                                               \
	ADDQ SI, R13                                                                                                                                                \
	ADDQ R11, R13                                                                                                                                               \
	CMPQ R10, $8                                                                                                                                                \
	JNE narrow                                                                                                                                                  \
	XORQ R12, R12                                                                                                                                               \
	BROWS(BROW8, BCAST, LSIZE, row8, dirty8, pdone8, mdone8, next8)                                                                                             \
	JMP summed                                                                                                                                                  \
narrow:                                                                                                                                                             \
	XORQ R12, R12                                                                                                                                               \
	BROWS(BROW, BCAST, LSIZE, row, dirty, pdone, mdone, next)                                                                                                   \
summed:                                                                                                                                                             \
	LEAQ (DI)(R11*1), R13                                                                                                                                       \
	MOVE8(MSTORE, R13, R10, accout)                                                                                                                             \
nextgroup:                                                                                                                                                          \
	ADDQ $128, 352(SP)                                                                                                                                          \
	JMP group                                                                                                                                                   \
final:                                                                                                                                                              \
	XORQ R11, R11                                                                                                                                               \
	PCALIGN $32                                                                                                                                                 \
fchunk:                                                                                                                                                             \
	CHUNKMASK(R11, R13, 320, ffull)                                                                                                                             \
	CMPQ R10, 368(SP)                                                                                                                                           \
	JLT fload                                                                                                                                                   \
	ZERO8                                                                                                                                                       \
	JMP fsub                                                                                                                                                    \
fload:                                                                                                                                                              \
	LEAQ (DI)(R11*1), R13                                                                                                                                       \
	MOVE8(MLOAD, R13, R10, fin)                                                                                                                                 \
fsub:                                                                                                                                                               \
	LEAQ (SI)(R11*1), R13                                                                                                                                       \
	VMASKMOVPD (R13), Y15, Y8                                                                                                                                   \
	VSUBPD Y0, Y8, Y0                                                                                                                                           \
	CMPQ R10, $1                                                                                                                                                \
	JLE fsolve                                                                                                                                                  \
	ADDQ R9, R13                                                                                                                                                \
	VMASKMOVPD (R13), Y15, Y8                                                                                                                                   \
	VSUBPD Y1, Y8, Y1                                                                                                                                           \
	CMPQ R10, $2                                                                                                                                                \
	JLE fsolve                                                                                                                                                  \
	ADDQ R9, R13                                                                                                                                                \
	VMASKMOVPD (R13), Y15, Y8                                                                                                                                   \
	VSUBPD Y2, Y8, Y2                                                                                                                                           \
	CMPQ R10, $3                                                                                                                                                \
	JLE fsolve                                                                                                                                                  \
	ADDQ R9, R13                                                                                                                                                \
	VMASKMOVPD (R13), Y15, Y8                                                                                                                                   \
	VSUBPD Y3, Y8, Y3                                                                                                                                           \
	CMPQ R10, $4                                                                                                                                                \
	JLE fsolve                                                                                                                                                  \
	ADDQ R9, R13                                                                                                                                                \
	VMASKMOVPD (R13), Y15, Y8                                                                                                                                   \
	VSUBPD Y4, Y8, Y4                                                                                                                                           \
	CMPQ R10, $5                                                                                                                                                \
	JLE fsolve                                                                                                                                                  \
	ADDQ R9, R13                                                                                                                                                \
	VMASKMOVPD (R13), Y15, Y8                                                                                                                                   \
	VSUBPD Y5, Y8, Y5                                                                                                                                           \
	CMPQ R10, $6                                                                                                                                                \
	JLE fsolve                                                                                                                                                  \
	ADDQ R9, R13                                                                                                                                                \
	VMASKMOVPD (R13), Y15, Y8                                                                                                                                   \
	VSUBPD Y6, Y8, Y6                                                                                                                                           \
	CMPQ R10, $7                                                                                                                                                \
	JLE fsolve                                                                                                                                                  \
	ADDQ R9, R13                                                                                                                                                \
	VMASKMOVPD (R13), Y15, Y8                                                                                                                                   \
	VSUBPD Y7, Y8, Y7                                                                                                                                           \
fsolve:                                                                                                                                                             \
	LEAQ (DX)(R8*8), R13                                                                                                                                        \
	SUBQ R8, R13                                                                                                                                                \
	BTRI(BCAST, LSIZE, fskip7, fskip6, fskip5, fskip4, fskip3, fskip2, fskip1, fskip0, fscale7, fscale6, fscale5, fscale4, fscale3, fscale2, fscale1, fscale0)  \
	LEAQ (SI)(R11*1), R13                                                                                                                                       \
	MOVE8(MSTORE, R13, R10, fout)                                                                                                                               \
	ADDQ $32, R11                                                                                                                                               \
	CMPQ R11, R9                                                                                                                                                \
	JLT fchunk                                                                                                                                                  \
	VZEROUPPER

// func forwardPanelAVX2f64(v *float64, n, m int, l *float64, ns, pw int)
TEXT ·forwardPanelAVX2f64(SB), NOSPLIT, $296-48
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ m+16(FP), R9
	MOVQ l+24(FP), DX
	MOVQ ns+32(FP), R8
	MOVQ pw+40(FP), R10
	FORWARD_PANEL(LOAD64, BCAST64, $3, 8)
	RET

// func forwardPanelAVX2f32(v *float64, n, m int, l *float32, ns, pw int)
TEXT ·forwardPanelAVX2f32(SB), NOSPLIT, $296-48
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ m+16(FP), R9
	MOVQ l+24(FP), DX
	MOVQ ns+32(FP), R8
	MOVQ pw+40(FP), R10
	FORWARD_PANEL(LOAD32, BCAST32, $2, 4)
	RET

// func backwardBlockAVX2f64(acc, v *float64, n, m int, l *float64, ns, bw int)
TEXT ·backwardBlockAVX2f64(SB), NOSPLIT, $376-56
	MOVQ acc+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ m+24(FP), R9
	MOVQ l+32(FP), DX
	MOVQ ns+40(FP), R8
	MOVQ bw+48(FP), R10
	BACKWARD_BLOCK(LOAD64, LOADV64, ZEROTEST64, BCAST64, $3, 8)
	RET

// func backwardBlockAVX2f32(acc, v *float64, n, m int, l *float32, ns, bw int)
TEXT ·backwardBlockAVX2f32(SB), NOSPLIT, $376-56
	MOVQ acc+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ m+24(FP), R9
	MOVQ l+32(FP), DX
	MOVQ ns+40(FP), R8
	MOVQ bw+48(FP), R10
	BACKWARD_BLOCK(LOAD32, LOADV32, ZEROTEST32, BCAST32, $2, 4)
	RET


// func addAVX2f64(dst, src *float64, n int)
// dst[i] += src[i] for i in [0, n): sixteen entries a step, then four,
// then one at a time, so it reads and writes nothing past either buffer.
// dst is each sum's left operand, as in the portable body.
TEXT ·addAVX2f64(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	LEAQ -16(CX), DX
	CMPQ AX, DX
	JGT  add4
	PCALIGN $32
add16:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD 64(DI)(AX*8), Y2
	VMOVUPD 96(DI)(AX*8), Y3
	VADDPD  (SI)(AX*8), Y0, Y0
	VADDPD  32(SI)(AX*8), Y1, Y1
	VADDPD  64(SI)(AX*8), Y2, Y2
	VADDPD  96(SI)(AX*8), Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ $16, AX
	CMPQ AX, DX
	JLE  add16
add4:
	LEAQ -4(CX), DX
	CMPQ AX, DX
	JGT  add1
	PCALIGN $32
add4loop:
	VMOVUPD (DI)(AX*8), Y0
	VADDPD  (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, DX
	JLE  add4loop
add1:
	CMPQ AX, CX
	JGE  done
	PCALIGN $32
add1loop:
	VMOVSD (DI)(AX*8), X0
	VADDSD (SI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JLT  add1loop
done:
	VZEROUPPER
	RET
