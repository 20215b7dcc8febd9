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

// AXPY is one chunk of a backward accumulator row at byte offset AX:
// acc += l·v.
#define AXPY(MOV, MUL, ADD, R0, L) \
	MUL (SI)(AX*1), L, R0  \
	ADD (BX)(AX*1), R0, R0 \
	MOV R0, (BX)(AX*1)

// BACKWARD_ROWS expects DI = the block's accumulator (bw×m), R10 = bw
// (> 0), R9 = m, SI = the first row beyond the block, CX = rows (> 0),
// DX = the block's first panel column at that row, R8 = ns.
#define BACKWARD_ROWS(LOAD, LSHIFT, LSIZE) \
	SHLQ LSHIFT, R8       \
	SHLQ $3, R9           \
	MOVQ R9, R14          \
	ANDQ $~31, R14        \
	VXORPD X15, X15, X15  \
row:                      \
	MOVQ DI, BX           \
	MOVQ DX, R11          \
	MOVQ R10, R12         \
col:                      \
	LOAD((R11), X12)      \
	VUCOMISD X15, X12     \
	JNE  axpy             \
	JPC  next             \
axpy:                     \
	VBROADCASTSD X12, Y12 \
	XORQ AX, AX           \
	CMPQ R14, $0          \
	JEQ  pair             \
quad:                     \
	AXPY(VMOVUPD, VMULPD, VADDPD, Y0, Y12) \
	ADDQ $32, AX          \
	CMPQ AX, R14          \
	JLT  quad             \
pair:                     \
	TESTQ $16, R9         \
	JZ   single           \
	AXPY(VMOVUPD, VMULPD, VADDPD, X0, X12) \
	ADDQ $16, AX          \
single:                   \
	TESTQ $8, R9          \
	JZ   next             \
	AXPY(VMOVSD, VMULSD, VADDSD, X0, X12) \
next:                     \
	ADDQ R8, R11          \
	ADDQ R9, BX           \
	DECQ R12              \
	JNZ  col              \
	ADDQ R9, SI           \
	ADDQ LSIZE, DX        \
	DECQ CX               \
	JNZ  row              \
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
	BACKWARD_ROWS(LOAD64, $3, $8)
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
	BACKWARD_ROWS(LOAD32, $2, $4)
	RET
