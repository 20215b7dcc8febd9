//go:build !purego

#include "textflag.h"

// AVX2 bodies of the two row primitives of rows.go, once per value plane.
// Only separate multiplies and adds/subtracts, applied to each entry in
// the order the portable bodies use: no fused multiply-add, no
// reassociation, no horizontal sum. A row is m/4 YMM chunks, then one XMM
// pair if m&2, then one scalar if m&1.

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

// UPDATE is one chunk of a forward row at byte offset AX: the chunk of
// dst loses l0·x0, then l1·x1, l2·x2, l3·x3 as far as the block is wide.
#define UPDATE(MOV, MUL, SUB, R0, R1, L0, L1, L2, L3, done) \
	MOV  (DI)(AX*1), R0      \
	MUL  (SI)(AX*1), L0, R1  \
	SUB  R1, R0, R0          \
	CMPQ R10, $2             \
	JLT  done                \
	MUL  (R11)(AX*1), L1, R1 \
	SUB  R1, R0, R0          \
	CMPQ R10, $3             \
	JLT  done                \
	MUL  (R13)(AX*1), L2, R1 \
	SUB  R1, R0, R0          \
	CMPQ R10, $4             \
	JLT  done                \
	MUL  (BX)(AX*1), L3, R1  \
	SUB  R1, R0, R0          \
done:                        \
	MOV  R0, (DI)(AX*1)

// FORWARD_ROWS expects DI = the first target row, CX = rows (> 0), R9 =
// m (also the target rows' stride), SI = the first solved row, AX = the
// solved rows' stride xs (AX is the chunk offset once R11/R13/BX hold the
// other solved rows), DX = the first panel column at the first target row,
// R8 = ns, R10 = block width (1..4). LSHIFT and LSIZE are log2 and the
// byte size of a panel element.
#define FORWARD_ROWS(BCAST, LSHIFT, LSIZE) \
	SHLQ LSHIFT, R8            \
	LEAQ (R8)(R8*2), R12       \
	SHLQ $3, R9                \
	SHLQ $3, AX                \
	LEAQ (SI)(AX*1), R11       \
	LEAQ (R11)(AX*1), R13      \
	LEAQ (R13)(AX*1), BX       \
	MOVQ R9, R14               \
	ANDQ $~31, R14             \
row:                           \
	BCAST((DX), X12, Y12)      \
	CMPQ R10, $2               \
	JLT  chunks                \
	BCAST((DX)(R8*1), X13, Y13) \
	CMPQ R10, $3               \
	JLT  chunks                \
	BCAST((DX)(R8*2), X14, Y14) \
	CMPQ R10, $4               \
	JLT  chunks                \
	BCAST((DX)(R12*1), X15, Y15) \
chunks:                        \
	XORQ AX, AX                \
	CMPQ R14, $0               \
	JEQ  pair                  \
quad:                          \
	UPDATE(VMOVUPD, VMULPD, VSUBPD, Y0, Y1, Y12, Y13, Y14, Y15, quadstore) \
	ADDQ $32, AX               \
	CMPQ AX, R14               \
	JLT  quad                  \
pair:                          \
	TESTQ $16, R9              \
	JZ   single                \
	UPDATE(VMOVUPD, VMULPD, VSUBPD, X0, X1, X12, X13, X14, X15, pairstore) \
	ADDQ $16, AX               \
single:                        \
	TESTQ $8, R9               \
	JZ   next                  \
	UPDATE(VMOVSD, VMULSD, VSUBSD, X0, X1, X12, X13, X14, X15, singlestore) \
next:                          \
	ADDQ R9, DI                \
	ADDQ LSIZE, DX             \
	DECQ CX                    \
	JNZ  row                   \
	VZEROUPPER

// AXPY is one chunk of a backward partial sum at byte offset AX: acc
// (at BX) += l·v (v at V).
#define AXPY(MOV, MUL, ADD, R0, L, V) \
	MUL (V)(AX*1), L, R0   \
	ADD (BX)(AX*1), R0, R0 \
	MOV R0, (BX)(AX*1)

// AXPY4 is one chunk of a backward partial sum at byte offset AX for a
// group of four rows: acc (at BX) is loaded once, gains l0·v0, then
// l1·v1, l2·v2, l3·v3 (v rows at SI, R13, R15, R10), and is stored once.
#define AXPY4(MOV, MUL, ADD, R0, R1, L0, L1, L2, L3) \
	MOV (BX)(AX*1), R0    \
	MUL (SI)(AX*1), L0, R1  \
	ADD R1, R0, R0        \
	MUL (R13)(AX*1), L1, R1 \
	ADD R1, R0, R0        \
	MUL (R15)(AX*1), L2, R1 \
	ADD R1, R0, R0        \
	MUL (R10)(AX*1), L3, R1 \
	ADD R1, R0, R0        \
	MOV R0, (BX)(AX*1)

// ROW adds one row (v at V, its panel element at byte offset OFF from R11)
// into the partial sum at BX, one chunk at a time — unless the element
// compares equal to zero (±0; NaN does not), when it adds nothing.
#define ROW(LOAD, OFF, V, axpy, quad, pair, single, next) \
	LOAD(OFF(R11), X12)   \
	VUCOMISD X15, X12     \
	JNE  axpy             \
	JPC  next             \
axpy:                     \
	VBROADCASTSD X12, Y12 \
	XORQ AX, AX           \
	CMPQ R14, $0          \
	JEQ  pair             \
	PCALIGN $32           \
quad:                     \
	AXPY(VMOVUPD, VMULPD, VADDPD, Y0, Y12, V) \
	ADDQ $32, AX          \
	CMPQ AX, R14          \
	JLT  quad             \
pair:                     \
	TESTQ $16, R9         \
	JZ   single           \
	AXPY(VMOVUPD, VMULPD, VADDPD, X0, X12, V) \
	ADDQ $16, AX          \
single:                   \
	TESTQ $8, R9          \
	JZ   next             \
	AXPY(VMOVSD, VMULSD, VADDSD, X0, X12, V) \
next:

// BACKWARD_ROWS expects DI = the block's partial sums (bw×m), R10 = bw
// (> 0), R9 = m, SI = the first row beyond the block, CX = rows (> 0),
// DX = the block's first panel column at that row, R8 = ns. LOADV puts
// four consecutive panel elements, widened, in a Y register; LSHIFT and
// LSIZE are log2 and the byte size of a panel element.
//
// The rows go in groups of four. For each block column the group's four
// panel elements come in with one load; when none compares equal to zero
// (VCMPPD EQ_OQ, false for NaN) every chunk of the partial sum is loaded
// once, gains the four rows in ascending order (the elements broadcast
// lane by lane) and is stored once. A column with a ±0 among its four,
// and the rows after the last full group, take the per-row path (ROW),
// which skips the zero elements. Either way every partial sum adds its
// rows in ascending order, each product rounded before it is added, so
// the bits are the portable body's. The column loops run to the end of
// the partial sums (R12), which leaves R10 for the fourth row of a
// group; R15 holds the third, which is safe because the body touches no
// global.
#define BACKWARD_ROWS(LOAD, LOADV, LSHIFT, LSIZE) \
	SHLQ LSHIFT, R8       \
	SHLQ $3, R9           \
	MOVQ R9, R14          \
	ANDQ $~31, R14        \
	MOVQ R9, R12          \
	IMULQ R10, R12        \
	ADDQ DI, R12          \
	VXORPD X15, X15, X15  \
	SUBQ $4, CX           \
	JLT  rest             \
	PCALIGN $32           \
group:                    \
	LEAQ (SI)(R9*1), R13  \
	LEAQ (R13)(R9*1), R15 \
	LEAQ (R15)(R9*1), R10 \
	MOVQ DI, BX           \
	MOVQ DX, R11          \
	PCALIGN $32           \
gcol:                     \
	LOADV((R11), Y12)     \
	VCMPPD $0, Y15, Y12, Y13 \
	VMOVMSKPD Y13, AX     \
	TESTQ AX, AX          \
	JNZ  gslow            \
	VPERMPD $0x00, Y12, Y8  \
	VPERMPD $0x55, Y12, Y9  \
	VPERMPD $0xAA, Y12, Y10 \
	VPERMPD $0xFF, Y12, Y11 \
	XORQ AX, AX           \
	CMPQ R14, $0          \
	JEQ  gpair            \
	PCALIGN $32           \
gquad:                    \
	AXPY4(VMOVUPD, VMULPD, VADDPD, Y0, Y1, Y8, Y9, Y10, Y11) \
	ADDQ $32, AX          \
	CMPQ AX, R14          \
	JLT  gquad            \
gpair:                    \
	TESTQ $16, R9         \
	JZ   gsingle          \
	AXPY4(VMOVUPD, VMULPD, VADDPD, X0, X1, X8, X9, X10, X11) \
	ADDQ $16, AX          \
gsingle:                  \
	TESTQ $8, R9          \
	JZ   gnext            \
	AXPY4(VMOVSD, VMULSD, VADDSD, X0, X1, X8, X9, X10, X11) \
	JMP  gnext            \
gslow:                    \
	ROW(LOAD, 0, SI, s0axpy, s0quad, s0pair, s0single, s0next) \
	ROW(LOAD, LSIZE, R13, s1axpy, s1quad, s1pair, s1single, s1next) \
	ROW(LOAD, (2*LSIZE), R15, s2axpy, s2quad, s2pair, s2single, s2next) \
	ROW(LOAD, (3*LSIZE), R10, s3axpy, s3quad, s3pair, s3single, s3next) \
gnext:                    \
	ADDQ R8, R11          \
	ADDQ R9, BX           \
	CMPQ BX, R12          \
	JLT  gcol             \
	LEAQ (R10)(R9*1), SI  \
	ADDQ $(4*LSIZE), DX   \
	SUBQ $4, CX           \
	JGE  group            \
rest:                     \
	ADDQ $4, CX           \
	JEQ  end              \
	PCALIGN $32           \
row:                      \
	MOVQ DI, BX           \
	MOVQ DX, R11          \
	PCALIGN $32           \
col:                      \
	ROW(LOAD, 0, SI, raxpy, rquad, rpair, rsingle, rnext) \
	ADDQ R8, R11          \
	ADDQ R9, BX           \
	CMPQ BX, R12          \
	JLT  col              \
	ADDQ R9, SI           \
	ADDQ $LSIZE, DX       \
	DECQ CX               \
	JNZ  row              \
end:                      \
	VZEROUPPER

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

// func forwardRowsAVX2f64(dst *float64, rows, m int, x *float64, xs int, l *float64, ns, bw int)
TEXT ·forwardRowsAVX2f64(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ rows+8(FP), CX
	MOVQ m+16(FP), R9
	MOVQ x+24(FP), SI
	MOVQ xs+32(FP), AX
	MOVQ l+40(FP), DX
	MOVQ ns+48(FP), R8
	MOVQ bw+56(FP), R10
	FORWARD_ROWS(BCAST64, $3, $8)
	RET

// func forwardRowsAVX2f32(dst *float64, rows, m int, x *float64, xs int, l *float32, ns, bw int)
TEXT ·forwardRowsAVX2f32(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ rows+8(FP), CX
	MOVQ m+16(FP), R9
	MOVQ x+24(FP), SI
	MOVQ xs+32(FP), AX
	MOVQ l+40(FP), DX
	MOVQ ns+48(FP), R8
	MOVQ bw+56(FP), R10
	FORWARD_ROWS(BCAST32, $2, $4)
	RET

// func backwardRowsAVX2f64(acc *float64, bw, m int, v *float64, rows int, l *float64, ns int)
TEXT ·backwardRowsAVX2f64(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ bw+8(FP), R10
	MOVQ m+16(FP), R9
	MOVQ v+24(FP), SI
	MOVQ rows+32(FP), CX
	MOVQ l+40(FP), DX
	MOVQ ns+48(FP), R8
	BACKWARD_ROWS(LOAD64, LOADV64, $3, 8)
	RET

// func backwardRowsAVX2f32(acc *float64, bw, m int, v *float64, rows int, l *float32, ns int)
TEXT ·backwardRowsAVX2f32(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ bw+8(FP), R10
	MOVQ m+16(FP), R9
	MOVQ v+24(FP), SI
	MOVQ rows+32(FP), CX
	MOVQ l+40(FP), DX
	MOVQ ns+48(FP), R8
	BACKWARD_ROWS(LOAD32, LOADV32, $2, 4)
	RET

// The m = 1 bodies. With one right-hand side a row is one entry, so the
// bodies above would run their scalar tail once per panel element; these
// put neighbouring entries in the lanes instead, still applying every
// entry's updates in the portable bodies' order. Every loop head is
// aligned to 32 bytes, so a loop's speed does not depend on where the
// linker happens to place it.

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

// FORWARD_ROWS1 is FORWARD_ROWS at m = 1: four target entries per YMM,
// each loaded once, updated by the block's columns in ascending order and
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

// BACKWARD_ROWS1 is BACKWARD_ROWS at m = 1: the block's partial sums sit
// in the lanes of Y8 (columns 0..3) and Y9 (columns 4..7), and the rows
// go four at a time through TILE, then one at a time through GATHER. A
// lane beyond the block reads the block's last column again and is never
// stored. It first prefetches the 2 KiB below the block: the backward
// sweep takes the blocks of a panel, and the panels of the factor, in
// descending address order, which the hardware prefetchers (trained by
// the ascending walk down each column) do not anticipate. It expects DI = the block's partial sums, R10 = bw (1..8), SI =
// the first row beyond the block, CX = rows (> 0), DX = the block's first
// panel column at that row, R8 = ns.
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
