#include "textflag.h"

// The AVX2 tier of the blocked GEMM kernels in matrix.go, then their
// AVX-512 tier (eight lanes, the same designs; see its section), and
// at the end the element-wise and sparse kernels. Each GEMM kernel
// puts four *output elements* in the four lanes of a register, so every
// C element is still one chained sum over increasing k that starts from
// the value C held (from +0 in GemmTNStore), and every product is
// rounded (VMULPD) before it is added (VADDPD) — never a fused
// multiply-add, which rounds once and changes the bits. The all-zero
// skip tests of the Go kernels sit where they sit there. The Go side (kernels_amd64.go) checks slice lengths and shapes
// before it calls in; nothing here reads or writes outside m, n, k.

// tailMask<> holds the lane masks of a column tail: the 32 bytes at
// offset (4-r)*8 select the first r lanes, r = 0..4.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// SKIP_IF_ZERO4 is the Go kernels' d0 == 0 && d1 == 0 && d2 == 0 &&
// d3 == 0 on the four doubles R8 bytes apart at (AX), either sign of
// zero: OR the bit patterns, shift the sign out, branch. Clobbers R12.
#define SKIP_IF_ZERO4(label) \
	MOVQ (AX), R12; \
	ORQ  (AX)(R8*1), R12; \
	ORQ  (AX)(R8*2), R12; \
	ORQ  (AX)(R9*1), R12; \
	SHLQ $1, R12; \
	JZ   label

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

// ---------------------------------------------------------------------
// GemmNT: lanes are four rows of A. Column j of a four-row block of C
// lives in one register, lane r = row r; four elements of each A row
// are loaded at a time and transposed in registers, so that register u
// holds a0[t+u], a1[t+u], a2[t+u], a3[t+u] to multiply by a broadcast
// b[j][t+u]. Eight columns run at once: eight independent add chains
// cover the adder's latency. The n%8 columns left run as a block of
// four, then of two, then one alone, so a narrow layer (four hidden
// units, the last two or four of ten or a hundred classes) still shares
// each transposed A load between columns and runs several chains.

// NT_GATHER_A loads a[r][t] of the four rows into the lanes of Y;
// NT_LOAD_C and NT_STORE_C move column off/8 of the four C rows.
#define NT_GATHER_A(X, Y, XT) \
	VMOVSD  (AX), X; \
	VMOVHPD (AX)(R8*1), X, X; \
	VMOVSD  (AX)(R8*2), XT; \
	VMOVHPD (AX)(R9*1), XT, XT; \
	VINSERTF128 $1, XT, Y, Y

#define NT_LOAD_C(off, X, Y, XT) \
	VMOVSD  off(DI), X; \
	VMOVHPD off(DI)(R10*1), X, X; \
	VMOVSD  off(DI)(R10*2), XT; \
	VMOVHPD off(DI)(R11*1), XT, XT; \
	VINSERTF128 $1, XT, Y, Y

#define NT_STORE_C(off, X, Y, XT) \
	VMOVSD  X, off(DI); \
	VMOVHPD X, off(DI)(R10*1); \
	VEXTRACTF128 $1, Y, XT; \
	VMOVSD  XT, off(DI)(R10*2); \
	VMOVHPD XT, off(DI)(R11*1)

// NT_LOAD_A4 loads a[r][t..t+3] for the four rows and transposes:
// Y8..Y11 = the four rows at t, t+1, t+2, t+3. Clobbers Y12..Y15.
#define NT_LOAD_A4 \
	VMOVUPD (AX), Y8; \
	VMOVUPD (AX)(R8*1), Y9; \
	VMOVUPD (AX)(R8*2), Y10; \
	VMOVUPD (AX)(R9*1), Y11; \
	VUNPCKLPD Y9, Y8, Y12; \
	VUNPCKHPD Y9, Y8, Y13; \
	VUNPCKLPD Y11, Y10, Y14; \
	VUNPCKHPD Y11, Y10, Y15; \
	VPERM2F128 $0x20, Y14, Y12, Y8; \
	VPERM2F128 $0x20, Y15, Y13, Y9; \
	VPERM2F128 $0x31, Y14, Y12, Y10; \
	VPERM2F128 $0x31, Y15, Y13, Y11

// NT_STEP8 adds one t to the eight column accumulators Y0..Y7: A holds
// the four rows at that t, off(BX) and off(CX) address b[j..j+3][t] and
// b[j+4..j+7][t].
#define NT_STEP8(A, off) \
	VBROADCASTSD off(BX), Y12; \
	VBROADCASTSD off(BX)(R8*1), Y13; \
	VBROADCASTSD off(BX)(R8*2), Y14; \
	VBROADCASTSD off(BX)(R9*1), Y15; \
	VMULPD A, Y12, Y12; \
	VMULPD A, Y13, Y13; \
	VMULPD A, Y14, Y14; \
	VMULPD A, Y15, Y15; \
	VADDPD Y12, Y0, Y0; \
	VADDPD Y13, Y1, Y1; \
	VADDPD Y14, Y2, Y2; \
	VADDPD Y15, Y3, Y3; \
	VBROADCASTSD off(CX), Y12; \
	VBROADCASTSD off(CX)(R8*1), Y13; \
	VBROADCASTSD off(CX)(R8*2), Y14; \
	VBROADCASTSD off(CX)(R9*1), Y15; \
	VMULPD A, Y12, Y12; \
	VMULPD A, Y13, Y13; \
	VMULPD A, Y14, Y14; \
	VMULPD A, Y15, Y15; \
	VADDPD Y12, Y4, Y4; \
	VADDPD Y13, Y5, Y5; \
	VADDPD Y14, Y6, Y6; \
	VADDPD Y15, Y7, Y7

// NT_STEP4 and NT_STEP2 are NT_STEP8's first four and first two
// columns; NT_STEP1 its first.
#define NT_STEP4(A, off) \
	VBROADCASTSD off(BX), Y12; \
	VBROADCASTSD off(BX)(R8*1), Y13; \
	VBROADCASTSD off(BX)(R8*2), Y14; \
	VBROADCASTSD off(BX)(R9*1), Y15; \
	VMULPD A, Y12, Y12; \
	VMULPD A, Y13, Y13; \
	VMULPD A, Y14, Y14; \
	VMULPD A, Y15, Y15; \
	VADDPD Y12, Y0, Y0; \
	VADDPD Y13, Y1, Y1; \
	VADDPD Y14, Y2, Y2; \
	VADDPD Y15, Y3, Y3

#define NT_STEP2(A, off) \
	VBROADCASTSD off(BX), Y12; \
	VBROADCASTSD off(BX)(R8*1), Y13; \
	VMULPD A, Y12, Y12; \
	VMULPD A, Y13, Y13; \
	VADDPD Y12, Y0, Y0; \
	VADDPD Y13, Y1, Y1

#define NT_STEP1(A, off) \
	VBROADCASTSD off(BX), Y12; \
	VMULPD A, Y12, Y12; \
	VADDPD Y12, Y0, Y0

// func gemmNTAVX2(c, a, b []float64, m, n, k, ldc int)
// C += A·Bᵀ over m rows, m a positive multiple of 4; n, k ≥ 1. C rows
// are ldc ≥ n elements apart (the AVX-512 tier hands this kernel the
// columns right of its own, n%8 of each row).
TEXT ·gemmNTAVX2(SB), NOSPLIT, $0-104
	MOVQ c_base+0(FP), DI // C: row 0 of the block, column j
	MOVQ a_base+24(FP), SI // A: row 0 of the block
	MOVQ ldc+96(FP), R10
	MOVQ k+88(FP), R8
	SHLQ $3, R10 // bytes per C row
	SHLQ $3, R8 // bytes per A row and per B row
	LEAQ (R10)(R10*2), R11
	LEAQ (R8)(R8*2), R9

ntRows:
	MOVQ b_base+48(FP), DX // B: row j
	MOVQ n+80(FP), R13 // columns left

ntCols8:
	CMPQ R13, $8
	JLT  ntCols4
	NT_LOAD_C(0, X0, Y0, X8)
	NT_LOAD_C(8, X1, Y1, X8)
	NT_LOAD_C(16, X2, Y2, X8)
	NT_LOAD_C(24, X3, Y3, X8)
	NT_LOAD_C(32, X4, Y4, X8)
	NT_LOAD_C(40, X5, Y5, X8)
	NT_LOAD_C(48, X6, Y6, X8)
	NT_LOAD_C(56, X7, Y7, X8)
	MOVQ SI, AX
	MOVQ DX, BX
	LEAQ (DX)(R8*4), CX
	MOVQ k+88(FP), R12
	SHRQ $2, R12
	JZ   nt8Tail

nt8Loop:
	NT_LOAD_A4
	NT_STEP8(Y8, 0)
	NT_STEP8(Y9, 8)
	NT_STEP8(Y10, 16)
	NT_STEP8(Y11, 24)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	DECQ R12
	JNZ  nt8Loop

nt8Tail:
	MOVQ k+88(FP), R12
	ANDQ $3, R12
	JZ   nt8Store

nt8TailLoop:
	NT_GATHER_A(X8, Y8, X9)
	NT_STEP8(Y8, 0)
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ $8, CX
	DECQ R12
	JNZ  nt8TailLoop

nt8Store:
	NT_STORE_C(0, X0, Y0, X8)
	NT_STORE_C(8, X1, Y1, X8)
	NT_STORE_C(16, X2, Y2, X8)
	NT_STORE_C(24, X3, Y3, X8)
	NT_STORE_C(32, X4, Y4, X8)
	NT_STORE_C(40, X5, Y5, X8)
	NT_STORE_C(48, X6, Y6, X8)
	NT_STORE_C(56, X7, Y7, X8)
	ADDQ $64, DI
	LEAQ (DX)(R8*8), DX
	SUBQ $8, R13
	JMP  ntCols8

ntCols4:
	CMPQ R13, $4
	JLT  ntCols2
	NT_LOAD_C(0, X0, Y0, X8)
	NT_LOAD_C(8, X1, Y1, X8)
	NT_LOAD_C(16, X2, Y2, X8)
	NT_LOAD_C(24, X3, Y3, X8)
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ k+88(FP), R12
	SHRQ $2, R12
	JZ   nt4Tail

nt4Loop:
	NT_LOAD_A4
	NT_STEP4(Y8, 0)
	NT_STEP4(Y9, 8)
	NT_STEP4(Y10, 16)
	NT_STEP4(Y11, 24)
	ADDQ $32, AX
	ADDQ $32, BX
	DECQ R12
	JNZ  nt4Loop

nt4Tail:
	MOVQ k+88(FP), R12
	ANDQ $3, R12
	JZ   nt4Store

nt4TailLoop:
	NT_GATHER_A(X8, Y8, X9)
	NT_STEP4(Y8, 0)
	ADDQ $8, AX
	ADDQ $8, BX
	DECQ R12
	JNZ  nt4TailLoop

nt4Store:
	NT_STORE_C(0, X0, Y0, X8)
	NT_STORE_C(8, X1, Y1, X8)
	NT_STORE_C(16, X2, Y2, X8)
	NT_STORE_C(24, X3, Y3, X8)
	ADDQ $32, DI
	LEAQ (DX)(R8*4), DX
	SUBQ $4, R13

ntCols2:
	CMPQ R13, $2
	JLT  ntCols1
	NT_LOAD_C(0, X0, Y0, X8)
	NT_LOAD_C(8, X1, Y1, X8)
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ k+88(FP), R12
	SHRQ $2, R12
	JZ   nt2Tail

nt2Loop:
	NT_LOAD_A4
	NT_STEP2(Y8, 0)
	NT_STEP2(Y9, 8)
	NT_STEP2(Y10, 16)
	NT_STEP2(Y11, 24)
	ADDQ $32, AX
	ADDQ $32, BX
	DECQ R12
	JNZ  nt2Loop

nt2Tail:
	MOVQ k+88(FP), R12
	ANDQ $3, R12
	JZ   nt2Store

nt2TailLoop:
	NT_GATHER_A(X8, Y8, X9)
	NT_STEP2(Y8, 0)
	ADDQ $8, AX
	ADDQ $8, BX
	DECQ R12
	JNZ  nt2TailLoop

nt2Store:
	NT_STORE_C(0, X0, Y0, X8)
	NT_STORE_C(8, X1, Y1, X8)
	ADDQ $16, DI
	LEAQ (DX)(R8*2), DX
	SUBQ $2, R13

ntCols1:
	TESTQ R13, R13
	JZ    ntRowsNext
	NT_LOAD_C(0, X0, Y0, X8)
	MOVQ  SI, AX
	MOVQ  DX, BX
	MOVQ  k+88(FP), R12
	SHRQ  $2, R12
	JZ    nt1Tail

nt1Loop:
	NT_LOAD_A4
	NT_STEP1(Y8, 0)
	NT_STEP1(Y9, 8)
	NT_STEP1(Y10, 16)
	NT_STEP1(Y11, 24)
	ADDQ $32, AX
	ADDQ $32, BX
	DECQ R12
	JNZ  nt1Loop

nt1Tail:
	MOVQ k+88(FP), R12
	ANDQ $3, R12
	JZ   nt1Store

nt1TailLoop:
	NT_GATHER_A(X8, Y8, X9)
	NT_STEP1(Y8, 0)
	ADDQ $8, AX
	ADDQ $8, BX
	DECQ R12
	JNZ  nt1TailLoop

nt1Store:
	NT_STORE_C(0, X0, Y0, X8)
	ADDQ $8, DI

ntRowsNext:
	MOVQ n+80(FP), R12 // DI walked n columns of row 0
	SHLQ $3, R12
	SUBQ R12, DI
	LEAQ (DI)(R10*4), DI
	LEAQ (SI)(R8*4), SI
	SUBQ $4, m+72(FP)
	JNZ  ntRows
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// GemmTN: lanes are four consecutive columns of C. For a block of four
// k rows and one C row i, the four deltas a[t..t+3][i] are broadcast
// and each vector of the row does s = c; s += d0*b0; s += d1*b1;
// s += d2*b2; s += d3*b3 — the Go kernel's statement sequence, four
// columns wide.
//
// GemmTNStore's first block is the same chain started from the +0 held
// in Y10 instead of from C, which it never reads. The first add stays:
// +0 + (−0) is +0, where the bare product would be −0.

// TN_TERMS adds the block's four products, in order, to the value in
// START, leaves the sum in ACC and stores it at off(DI).
#define TN_TERMS(off, START, ACC, T) \
	VMULPD  off(BX), Y12, T; \
	VADDPD  T, START, ACC; \
	VMULPD  off(BX)(R10*1), Y13, T; \
	VADDPD  T, ACC, ACC; \
	VMULPD  off(BX)(R10*2), Y14, T; \
	VADDPD  T, ACC, ACC; \
	VMULPD  off(BX)(R11*1), Y15, T; \
	VADDPD  T, ACC, ACC; \
	VMOVUPD ACC, off(DI)

// TN_CHAIN runs the four-term chain on the vector at off(DI).
#define TN_CHAIN(off, ACC, T) \
	VMOVUPD off(DI), ACC; \
	TN_TERMS(off, ACC, ACC, T)

// TN_TAIL_TERMS is TN_TERMS on the last n%4 columns of a row, under the
// lane mask in Y11, into Y0.
#define TN_TAIL_TERMS(START) \
	VMASKMOVPD (BX), Y11, Y4; \
	VMULPD     Y4, Y12, Y4; \
	VADDPD     Y4, START, Y0; \
	VMASKMOVPD (BX)(R10*1), Y11, Y4; \
	VMULPD     Y4, Y13, Y4; \
	VADDPD     Y4, Y0, Y0; \
	VMASKMOVPD (BX)(R10*2), Y11, Y4; \
	VMULPD     Y4, Y14, Y4; \
	VADDPD     Y4, Y0, Y0; \
	VMASKMOVPD (BX)(R11*1), Y11, Y4; \
	VMULPD     Y4, Y15, Y4; \
	VADDPD     Y4, Y0, Y0; \
	VMASKMOVPD Y0, Y11, (DI)

// TN_SETUP loads what both TN kernels keep for the whole call: the row
// strides of B and C (R10, R11 = 3·R10) and of A (R8, R9 = 3·R8) in
// bytes, and the mask of the first n%4 lanes in Y11. Clobbers CX, BX.
#define TN_SETUP \
	MOVQ n+80(FP), R10; \
	MOVQ m+72(FP), R8; \
	SHLQ $3, R10; \
	SHLQ $3, R8; \
	LEAQ (R10)(R10*2), R11; \
	LEAQ (R8)(R8*2), R9; \
	MOVQ n+80(FP), CX; \
	ANDQ $3, CX; \
	NEGQ CX; \
	LEAQ tailMask<>+32(SB), BX; \
	VMOVDQU (BX)(CX*8), Y11

// TN_BROADCAST_D puts the row's four deltas in Y12..Y15.
#define TN_BROADCAST_D \
	VBROADCASTSD (AX), Y12; \
	VBROADCASTSD (AX)(R8*1), Y13; \
	VBROADCASTSD (AX)(R8*2), Y14; \
	VBROADCASTSD (AX)(R9*1), Y15

// func gemmTNAVX2(c, a, b []float64, m, n, k int)
// C += Aᵀ·B: a[t*m+i] pairs k row t with C row i. k is a positive
// multiple of 4; m, n ≥ 1.
TEXT ·gemmTNAVX2(SB), NOSPLIT, $0-96
	MOVQ a_base+24(FP), SI // A: k row t of the block, C row 0
	MOVQ b_base+48(FP), DX // B: k row t of the block
	TN_SETUP

tnBlock:
	MOVQ c_base+0(FP), DI // C: row i, column j
	MOVQ SI, AX // A: k row t, C row i
	MOVQ m+72(FP), R13

tnRow:
	SKIP_IF_ZERO4(tnSkip)
	TN_BROADCAST_D
	MOVQ DX, BX
	MOVQ n+80(FP), R12

tnCols16:
	CMPQ R12, $16
	JLT  tnCols4
	TN_CHAIN(0, Y0, Y4)
	TN_CHAIN(32, Y1, Y5)
	TN_CHAIN(64, Y2, Y6)
	TN_CHAIN(96, Y3, Y7)
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $16, R12
	JMP  tnCols16

tnCols4:
	CMPQ R12, $4
	JLT  tnColsTail
	TN_CHAIN(0, Y0, Y4)
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $4, R12
	JMP  tnCols4

tnColsTail:
	TESTQ R12, R12
	JZ    tnRowDone
	VMASKMOVPD (DI), Y11, Y0
	TN_TAIL_TERMS(Y0)
	LEAQ       (DI)(R12*8), DI

tnRowDone:
	ADDQ $8, AX
	DECQ R13
	JNZ  tnRow
	LEAQ (SI)(R8*4), SI
	LEAQ (DX)(R10*4), DX
	SUBQ $4, k+88(FP)
	JNZ  tnBlock
	VZEROUPPER
	RET

tnSkip:
	ADDQ R10, DI
	JMP  tnRowDone

// func gemmTNStoreAVX2(c, a, b []float64, m, n int)
// C = Aᵀ·B over one block of four k rows: every element of C is
// written, none is read. m ≥ 1, n ≥ 4.
TEXT ·gemmTNStoreAVX2(SB), NOSPLIT, $0-88
	MOVQ c_base+0(FP), DI // C: row i, column j
	MOVQ a_base+24(FP), AX // A: k row 0, C row i
	MOVQ b_base+48(FP), DX // B: k row 0
	TN_SETUP
	VXORPD Y10, Y10, Y10 // +0, the start of every chain
	MOVQ m+72(FP), R13

tsRow:
	SKIP_IF_ZERO4(tsZeroRow)
	TN_BROADCAST_D
	MOVQ DX, BX
	MOVQ n+80(FP), R12

tsCols16:
	CMPQ R12, $16
	JLT  tsCols4
	TN_TERMS(0, Y10, Y0, Y4)
	TN_TERMS(32, Y10, Y1, Y5)
	TN_TERMS(64, Y10, Y2, Y6)
	TN_TERMS(96, Y10, Y3, Y7)
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $16, R12
	JMP  tsCols16

tsCols4:
	CMPQ R12, $4
	JLT  tsColsTail
	TN_TERMS(0, Y10, Y0, Y4)
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $4, R12
	JMP  tsCols4

tsColsTail:
	TESTQ R12, R12
	JZ    tsRowDone
	TN_TAIL_TERMS(Y10)
	LEAQ  (DI)(R12*8), DI

tsRowDone:
	ADDQ $8, AX
	DECQ R13
	JNZ  tsRow
	VZEROUPPER
	RET

	// Four deltas of ±0: the accumulate form skips the row, which a
	// cleared C leaves at +0, so the store form writes +0.
tsZeroRow:
	MOVQ n+80(FP), R12

tsZero4:
	CMPQ R12, $4
	JLT  tsZeroTail
	VMOVUPD Y10, (DI)
	ADDQ $32, DI
	SUBQ $4, R12
	JMP  tsZero4

tsZeroTail:
	TESTQ R12, R12
	JZ    tsRowDone
	VMASKMOVPD Y10, Y11, (DI)
	LEAQ  (DI)(R12*8), DI
	JMP   tsRowDone

// ---------------------------------------------------------------------
// GemmNN: lanes are four consecutive columns of C. A 4-row × 8-column
// block of C stays in eight registers while t runs over k, so each
// element's chain c += a[i][t]*b[t][j] keeps its order and C is read
// and written once. The skip test does not depend on j, so hoisting
// the column loop outside the t loop leaves it exactly as selective.

// func gemmNNAVX2(c, a, b []float64, m, n, k int)
// C += A·B over m rows, m a positive multiple of 4; n, k ≥ 1.
TEXT ·gemmNNAVX2(SB), NOSPLIT, $0-96
	MOVQ c_base+0(FP), DI // C: row 0 of the block, column j
	MOVQ a_base+24(FP), SI // A: row 0 of the block
	MOVQ n+80(FP), R10
	MOVQ k+88(FP), R8
	SHLQ $3, R10 // bytes per B row and per C row
	SHLQ $3, R8 // bytes per A row
	LEAQ (R10)(R10*2), R11
	LEAQ (R8)(R8*2), R9

nnRows:
	MOVQ b_base+48(FP), DX // B: row 0, column j
	MOVQ n+80(FP), R13 // columns left

nnCols8:
	CMPQ R13, $8
	JLT  nnCols4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R10*1), Y2
	VMOVUPD 32(DI)(R10*1), Y3
	VMOVUPD (DI)(R10*2), Y4
	VMOVUPD 32(DI)(R10*2), Y5
	VMOVUPD (DI)(R11*1), Y6
	VMOVUPD 32(DI)(R11*1), Y7
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ k+88(FP), CX

nn8Loop:
	SKIP_IF_ZERO4(nn8Next)
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VBROADCASTSD (AX), Y10
	VBROADCASTSD (AX)(R8*1), Y13
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1
	VMULPD Y8, Y13, Y14
	VMULPD Y9, Y13, Y15
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3
	VBROADCASTSD (AX)(R8*2), Y10
	VBROADCASTSD (AX)(R9*1), Y13
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y4, Y4
	VADDPD Y12, Y5, Y5
	VMULPD Y8, Y13, Y14
	VMULPD Y9, Y13, Y15
	VADDPD Y14, Y6, Y6
	VADDPD Y15, Y7, Y7

nn8Next:
	ADDQ $8, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  nn8Loop
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R10*1)
	VMOVUPD Y3, 32(DI)(R10*1)
	VMOVUPD Y4, (DI)(R10*2)
	VMOVUPD Y5, 32(DI)(R10*2)
	VMOVUPD Y6, (DI)(R11*1)
	VMOVUPD Y7, 32(DI)(R11*1)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, R13
	JMP  nnCols8

	// The last n%8 columns, at most four at a time under a lane mask
	// (a whole vector first when five or more are left).
nnCols4:
	TESTQ   R13, R13
	JZ      nnRowsNext
	MOVQ    $4, CX
	CMPQ    R13, CX
	CMOVQLT R13, CX
	NEGQ    CX
	LEAQ    tailMask<>+32(SB), AX
	VMOVDQU (AX)(CX*8), Y15 // the first min(4, columns left) lanes
	VMASKMOVPD (DI), Y15, Y0
	VMASKMOVPD (DI)(R10*1), Y15, Y1
	VMASKMOVPD (DI)(R10*2), Y15, Y2
	VMASKMOVPD (DI)(R11*1), Y15, Y3
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ k+88(FP), CX

nn4Loop:
	SKIP_IF_ZERO4(nn4Next)
	VMASKMOVPD (BX), Y15, Y8
	VBROADCASTSD (AX), Y10
	VBROADCASTSD (AX)(R8*1), Y11
	VBROADCASTSD (AX)(R8*2), Y12
	VBROADCASTSD (AX)(R9*1), Y13
	VMULPD Y8, Y10, Y10
	VMULPD Y8, Y11, Y11
	VMULPD Y8, Y12, Y12
	VMULPD Y8, Y13, Y13
	VADDPD Y10, Y0, Y0
	VADDPD Y11, Y1, Y1
	VADDPD Y12, Y2, Y2
	VADDPD Y13, Y3, Y3

nn4Next:
	ADDQ $8, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  nn4Loop
	VMASKMOVPD Y0, Y15, (DI)
	VMASKMOVPD Y1, Y15, (DI)(R10*1)
	VMASKMOVPD Y2, Y15, (DI)(R10*2)
	VMASKMOVPD Y3, Y15, (DI)(R11*1)
	CMPQ R13, $4
	JLE  nnLastCols
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, R13
	JMP  nnCols4

nnLastCols:
	LEAQ (DI)(R13*8), DI

nnRowsNext:
	ADDQ R11, DI // DI walked row 0; the block has three more
	LEAQ (SI)(R8*4), SI
	SUBQ $4, m+72(FP)
	JNZ  nnRows
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// The AVX-512 tier: the same three designs, eight lanes wide, on the
// AVX512F subset only. Lanes are still output elements, every product
// is still rounded by VMULPD before VADDPD adds it (no FMA and no
// embedded rounding), and each C element is still one chain over
// increasing k. Loads and stores under a K mask (zeroing on load) take
// NN's column tail and NT's k%8 tail; TN, TNStore and SparseRows run
// their last n%8 columns with the AVX2 kernels' four-column step and
// VMASKMOVPD tail. Either way a masked-out lane is never read or
// written, and its fault is suppressed, so the guard-page tests hold.
// The skip tests keep the
// granularity of the Go kernels: TN per (block of four k rows, C row),
// NN per (block of four A rows, t).

// LANE_MASK sets the first CX lanes of K, CX ≤ 8. Clobbers BX.
#define LANE_MASK(K) \
	MOVL  $1, BX; \
	SHLL  CX, BX; \
	DECL  BX; \
	KMOVW BX, K

// TRANSPOSE8 transposes the 8×8 block whose rows are R0..R7 into
// T0..T7 (T0 = the first element of every row, …), clobbering R0..R7:
// pairs within 128-bit lanes, then 128-bit lanes between row pairs,
// then between row quadruples; 24 shuffles.
#define TRANSPOSE8(R0, R1, R2, R3, R4, R5, R6, R7, T0, T1, T2, T3, T4, T5, T6, T7) \
	VUNPCKLPD  R1, R0, T0; \
	VUNPCKHPD  R1, R0, T1; \
	VUNPCKLPD  R3, R2, T2; \
	VUNPCKHPD  R3, R2, T3; \
	VUNPCKLPD  R5, R4, T4; \
	VUNPCKHPD  R5, R4, T5; \
	VUNPCKLPD  R7, R6, T6; \
	VUNPCKHPD  R7, R6, T7; \
	VSHUFF64X2 $0x88, T2, T0, R0; \
	VSHUFF64X2 $0x88, T3, T1, R1; \
	VSHUFF64X2 $0xdd, T2, T0, R2; \
	VSHUFF64X2 $0xdd, T3, T1, R3; \
	VSHUFF64X2 $0x88, T6, T4, R4; \
	VSHUFF64X2 $0x88, T7, T5, R5; \
	VSHUFF64X2 $0xdd, T6, T4, R6; \
	VSHUFF64X2 $0xdd, T7, T5, R7; \
	VSHUFF64X2 $0x88, R4, R0, T0; \
	VSHUFF64X2 $0xdd, R4, R0, T4; \
	VSHUFF64X2 $0x88, R5, R1, T1; \
	VSHUFF64X2 $0xdd, R5, R1, T5; \
	VSHUFF64X2 $0x88, R6, R2, T2; \
	VSHUFF64X2 $0xdd, R6, R2, T6; \
	VSHUFF64X2 $0x88, R7, R3, T3; \
	VSHUFF64X2 $0xdd, R7, R3, T7

// GemmNT: lanes are eight rows of A. An 8×16 tile of C (8×8 for the
// last eight columns when n%16 = 8) is loaded row by row and
// transposed, so that Zq holds column j+q of the eight rows; eight
// elements of each A row are loaded and transposed the same way, so
// that the register for t holds a0[t], …, a7[t], to multiply by
// b[j+q][t] broadcast from memory. Only whole tiles run here: the Go
// side hands the n%8 columns right of them to the AVX2 kernel, which
// continues nothing — each of its elements is a whole chain too.

// NTZ_LOAD8 loads eight doubles of each of the eight rows at (P) and
// (Q) (rows 0-3 and 4-7, S bytes apart, S3 = 3·S) into D0..D7, the
// lanes outside MASK as zeros.
#define NTZ_LOAD8(P, Q, S, S3, MASK, D0, D1, D2, D3, D4, D5, D6, D7) \
	VMOVUPD.Z (P), MASK, D0; \
	VMOVUPD.Z (P)(S*1), MASK, D1; \
	VMOVUPD.Z (P)(S*2), MASK, D2; \
	VMOVUPD.Z (P)(S3*1), MASK, D3; \
	VMOVUPD.Z (Q), MASK, D4; \
	VMOVUPD.Z (Q)(S*1), MASK, D5; \
	VMOVUPD.Z (Q)(S*2), MASK, D6; \
	VMOVUPD.Z (Q)(S3*1), MASK, D7

// NTZ_STEP adds one t to the eight column accumulators Z0..Z7: A holds
// the eight rows at that t, off(BX) and off(CX) address b[j..j+3][t]
// and b[j+4..j+7][t].
#define NTZ_STEP(A, off) \
	VMULPD.BCST off(BX), A, Z24; \
	VMULPD.BCST off(BX)(R8*1), A, Z25; \
	VMULPD.BCST off(BX)(R8*2), A, Z26; \
	VMULPD.BCST off(BX)(R9*1), A, Z27; \
	VMULPD.BCST off(CX), A, Z28; \
	VMULPD.BCST off(CX)(R8*1), A, Z29; \
	VMULPD.BCST off(CX)(R8*2), A, Z30; \
	VMULPD.BCST off(CX)(R9*1), A, Z31; \
	VADDPD Z24, Z0, Z0; \
	VADDPD Z25, Z1, Z1; \
	VADDPD Z26, Z2, Z2; \
	VADDPD Z27, Z3, Z3; \
	VADDPD Z28, Z4, Z4; \
	VADDPD Z29, Z5, Z5; \
	VADDPD Z30, Z6, Z6; \
	VADDPD Z31, Z7, Z7

// NTZ_STEP16 is NTZ_STEP over sixteen columns: accumulators Z0..Z15,
// b[j+8..j+11][t] and b[j+12..j+15][t] at off(R10) and off(R11).
#define NTZ_STEP16(A, off) \
	NTZ_STEP(A, off); \
	VMULPD.BCST off(R10), A, Z24; \
	VMULPD.BCST off(R10)(R8*1), A, Z25; \
	VMULPD.BCST off(R10)(R8*2), A, Z26; \
	VMULPD.BCST off(R10)(R9*1), A, Z27; \
	VMULPD.BCST off(R11), A, Z28; \
	VMULPD.BCST off(R11)(R8*1), A, Z29; \
	VMULPD.BCST off(R11)(R8*2), A, Z30; \
	VMULPD.BCST off(R11)(R9*1), A, Z31; \
	VADDPD Z24, Z8, Z8; \
	VADDPD Z25, Z9, Z9; \
	VADDPD Z26, Z10, Z10; \
	VADDPD Z27, Z11, Z11; \
	VADDPD Z28, Z12, Z12; \
	VADDPD Z29, Z13, Z13; \
	VADDPD Z30, Z14, Z14; \
	VADDPD Z31, Z15, Z15

// NTZ_LOAD_C loads eight doubles at off of each of the eight C rows
// and transposes them into C0..C7, one column a register; NTZ_STORE_C
// transposes C0..C7 back and stores them. Both take R12 = DI + 4·R10
// and clobber Z24..Z31.
#define NTZ_LOAD_C(off, C0, C1, C2, C3, C4, C5, C6, C7) \
	VMOVUPD off(DI), Z24; \
	VMOVUPD off(DI)(R10*1), Z25; \
	VMOVUPD off(DI)(R10*2), Z26; \
	VMOVUPD off(DI)(R11*1), Z27; \
	VMOVUPD off(R12), Z28; \
	VMOVUPD off(R12)(R10*1), Z29; \
	VMOVUPD off(R12)(R10*2), Z30; \
	VMOVUPD off(R12)(R11*1), Z31; \
	TRANSPOSE8(Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31, C0, C1, C2, C3, C4, C5, C6, C7)

#define NTZ_STORE_C(off, C0, C1, C2, C3, C4, C5, C6, C7) \
	TRANSPOSE8(C0, C1, C2, C3, C4, C5, C6, C7, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31); \
	VMOVUPD Z24, off(DI); \
	VMOVUPD Z25, off(DI)(R10*1); \
	VMOVUPD Z26, off(DI)(R10*2); \
	VMOVUPD Z27, off(DI)(R11*1); \
	VMOVUPD Z28, off(R12); \
	VMOVUPD Z29, off(R12)(R10*1); \
	VMOVUPD Z30, off(R12)(R10*2); \
	VMOVUPD Z31, off(R12)(R11*1)

// func gemmNTAVX512(c, a, b []float64, m, n, k, ldc int)
// C += A·Bᵀ over m rows and n columns, both positive multiples of 8;
// k ≥ 1; C rows are ldc ≥ n elements apart.
TEXT ·gemmNTAVX512(SB), NOSPLIT, $0-104
	MOVQ c_base+0(FP), DI // C: row 0 of the block, column j
	MOVQ a_base+24(FP), SI // A: row 0 of the block
	MOVQ ldc+96(FP), R10
	MOVQ k+88(FP), R8
	SHLQ $3, R10 // bytes per C row
	SHLQ $3, R8 // bytes per A row and per B row
	LEAQ (R10)(R10*2), R11
	LEAQ (R8)(R8*2), R9
	MOVQ k+88(FP), CX
	ANDQ $7, CX
	LANE_MASK(K1) // the first k%8 lanes
	KXNORW K2, K2, K2 // every lane

ntzRows:
	MOVQ b_base+48(FP), DX // B: row j
	MOVQ n+80(FP), R13 // columns left

	// Sixteen columns a tile while they last: each transposed A
	// register feeds sixteen chains. R10 and R11 address B rows
	// j+8..j+15 inside the k loop and are reloaded for C after it.
ntzTile16:
	CMPQ R13, $16
	JLT  ntzTile
	LEAQ (DI)(R10*4), R12
	NTZ_LOAD_C(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	NTZ_LOAD_C(64, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	MOVQ SI, AX
	LEAQ (SI)(R8*4), R14
	MOVQ DX, BX
	LEAQ (DX)(R8*4), CX
	LEAQ (DX)(R8*8), R10
	LEAQ (R10)(R8*4), R11
	MOVQ k+88(FP), R12
	SHRQ $3, R12
	JZ   ntz16Tail

ntz16Loop:
	NTZ_LOAD8(AX, R14, R8, R9, K2, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31)
	TRANSPOSE8(Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	NTZ_STEP16(Z16, 0)
	NTZ_STEP16(Z17, 8)
	NTZ_STEP16(Z18, 16)
	NTZ_STEP16(Z19, 24)
	NTZ_STEP16(Z20, 32)
	NTZ_STEP16(Z21, 40)
	NTZ_STEP16(Z22, 48)
	NTZ_STEP16(Z23, 56)
	ADDQ $64, AX
	ADDQ $64, R14
	ADDQ $64, BX
	ADDQ $64, CX
	ADDQ $64, R10
	ADDQ $64, R11
	DECQ R12
	JNZ  ntz16Loop

ntz16Tail:
	MOVQ k+88(FP), R12
	ANDQ $7, R12
	JZ   ntz16Store
	NTZ_LOAD8(AX, R14, R8, R9, K1, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31)
	TRANSPOSE8(Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	NTZ_STEP16(Z16, 0)
	DECQ R12
	JZ   ntz16Store
	NTZ_STEP16(Z17, 8)
	DECQ R12
	JZ   ntz16Store
	NTZ_STEP16(Z18, 16)
	DECQ R12
	JZ   ntz16Store
	NTZ_STEP16(Z19, 24)
	DECQ R12
	JZ   ntz16Store
	NTZ_STEP16(Z20, 32)
	DECQ R12
	JZ   ntz16Store
	NTZ_STEP16(Z21, 40)
	DECQ R12
	JZ   ntz16Store
	NTZ_STEP16(Z22, 48)

ntz16Store:
	MOVQ ldc+96(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	LEAQ (DI)(R10*4), R12
	NTZ_STORE_C(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	NTZ_STORE_C(64, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	ADDQ $128, DI
	LEAQ (DX)(R8*8), DX
	LEAQ (DX)(R8*8), DX
	SUBQ $16, R13
	JMP  ntzTile16

	// One tile of eight columns, when n%16 = 8.
ntzTile:
	TESTQ R13, R13
	JZ    ntzRowsNext
	LEAQ  (DI)(R10*4), R12
	NTZ_LOAD_C(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	MOVQ SI, AX
	LEAQ (SI)(R8*4), R14
	MOVQ DX, BX
	LEAQ (DX)(R8*4), CX
	MOVQ k+88(FP), R12
	SHRQ $3, R12
	JZ   ntzTail

ntzLoop:
	NTZ_LOAD8(AX, R14, R8, R9, K2, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	TRANSPOSE8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	NTZ_STEP(Z16, 0)
	NTZ_STEP(Z17, 8)
	NTZ_STEP(Z18, 16)
	NTZ_STEP(Z19, 24)
	NTZ_STEP(Z20, 32)
	NTZ_STEP(Z21, 40)
	NTZ_STEP(Z22, 48)
	NTZ_STEP(Z23, 56)
	ADDQ $64, AX
	ADDQ $64, R14
	ADDQ $64, BX
	ADDQ $64, CX
	DECQ R12
	JNZ  ntzLoop

	// The last k%8 t: the lanes past them load as zeros and are never
	// multiplied.
ntzTail:
	MOVQ k+88(FP), R12
	ANDQ $7, R12
	JZ   ntzStore
	NTZ_LOAD8(AX, R14, R8, R9, K1, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	TRANSPOSE8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	NTZ_STEP(Z16, 0)
	DECQ R12
	JZ   ntzStore
	NTZ_STEP(Z17, 8)
	DECQ R12
	JZ   ntzStore
	NTZ_STEP(Z18, 16)
	DECQ R12
	JZ   ntzStore
	NTZ_STEP(Z19, 24)
	DECQ R12
	JZ   ntzStore
	NTZ_STEP(Z20, 32)
	DECQ R12
	JZ   ntzStore
	NTZ_STEP(Z21, 40)
	DECQ R12
	JZ   ntzStore
	NTZ_STEP(Z22, 48)

ntzStore:
	LEAQ (DI)(R10*4), R12
	NTZ_STORE_C(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	ADDQ $64, DI

ntzRowsNext:
	MOVQ    n+80(FP), R12 // DI walked n columns of row 0
	SHLQ    $3, R12
	SUBQ    R12, DI
	LEAQ    (DI)(R10*8), DI
	LEAQ    (SI)(R8*8), SI
	SUBQ    $8, m+72(FP)
	JNZ     ntzRows
	VZEROUPPER
	RET

// GemmTN: lanes are eight consecutive columns of C; otherwise the AVX2
// kernel's loop, thirty-two columns an iteration, then eight. The last
// n%8 columns run the AVX2 kernel's own four-column chain and masked
// tail on the low halves of the same registers: BenchmarkGemm finds an
// eight-lane masked tail slower than those, down to n = 4.

// TNZ_TERMS adds the block's four products, in order, to the value in
// START, leaves the sum in ACC and stores it at off(DI).
#define TNZ_TERMS(off, START, ACC, T) \
	VMULPD  off(BX), Z12, T; \
	VADDPD  T, START, ACC; \
	VMULPD  off(BX)(R10*1), Z13, T; \
	VADDPD  T, ACC, ACC; \
	VMULPD  off(BX)(R10*2), Z14, T; \
	VADDPD  T, ACC, ACC; \
	VMULPD  off(BX)(R11*1), Z15, T; \
	VADDPD  T, ACC, ACC; \
	VMOVUPD ACC, off(DI)

#define TNZ_CHAIN(off, ACC, T) \
	VMOVUPD off(DI), ACC; \
	TNZ_TERMS(off, ACC, ACC, T)

#define TNZ_BROADCAST_D \
	VBROADCASTSD (AX), Z12; \
	VBROADCASTSD (AX)(R8*1), Z13; \
	VBROADCASTSD (AX)(R8*2), Z14; \
	VBROADCASTSD (AX)(R9*1), Z15

// func gemmTNAVX512(c, a, b []float64, m, n, k int)
// C += Aᵀ·B: a[t*m+i] pairs k row t with C row i. k is a positive
// multiple of 4; m, n ≥ 1.
TEXT ·gemmTNAVX512(SB), NOSPLIT, $0-96
	MOVQ a_base+24(FP), SI // A: k row t of the block, C row 0
	MOVQ b_base+48(FP), DX // B: k row t of the block
	TN_SETUP

tnzBlock:
	MOVQ c_base+0(FP), DI // C: row i, column j
	MOVQ SI, AX // A: k row t, C row i
	MOVQ m+72(FP), R13

tnzRow:
	SKIP_IF_ZERO4(tnzSkip)
	TNZ_BROADCAST_D
	MOVQ DX, BX
	MOVQ n+80(FP), R12

tnzCols32:
	CMPQ R12, $32
	JLT  tnzCols8
	TNZ_CHAIN(0, Z0, Z4)
	TNZ_CHAIN(64, Z1, Z5)
	TNZ_CHAIN(128, Z2, Z6)
	TNZ_CHAIN(192, Z3, Z7)
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $32, R12
	JMP  tnzCols32

tnzCols8:
	CMPQ R12, $8
	JLT  tnzCols4
	TNZ_CHAIN(0, Z0, Z4)
	ADDQ $64, DI
	ADDQ $64, BX
	SUBQ $8, R12
	JMP  tnzCols8

tnzCols4:
	CMPQ R12, $4
	JLT  tnzColsTail
	TN_CHAIN(0, Y0, Y4)
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $4, R12

tnzColsTail:
	TESTQ R12, R12
	JZ    tnzRowDone
	VMASKMOVPD (DI), Y11, Y0
	TN_TAIL_TERMS(Y0)
	LEAQ       (DI)(R12*8), DI

tnzRowDone:
	ADDQ $8, AX
	DECQ R13
	JNZ  tnzRow
	LEAQ (SI)(R8*4), SI
	LEAQ (DX)(R10*4), DX
	SUBQ $4, k+88(FP)
	JNZ  tnzBlock
	VZEROUPPER
	RET

tnzSkip:
	ADDQ R10, DI
	JMP  tnzRowDone

// func gemmTNStoreAVX512(c, a, b []float64, m, n int)
// C = Aᵀ·B over one block of four k rows, as gemmTNStoreAVX2. m, n ≥ 1.
TEXT ·gemmTNStoreAVX512(SB), NOSPLIT, $0-88
	MOVQ c_base+0(FP), DI // C: row i, column j
	MOVQ a_base+24(FP), AX // A: k row 0, C row i
	MOVQ b_base+48(FP), DX // B: k row 0
	TN_SETUP
	VPXORQ Z10, Z10, Z10 // +0, the start of every chain
	MOVQ   m+72(FP), R13

tszRow:
	SKIP_IF_ZERO4(tszZeroRow)
	TNZ_BROADCAST_D
	MOVQ DX, BX
	MOVQ n+80(FP), R12

tszCols32:
	CMPQ R12, $32
	JLT  tszCols8
	TNZ_TERMS(0, Z10, Z0, Z4)
	TNZ_TERMS(64, Z10, Z1, Z5)
	TNZ_TERMS(128, Z10, Z2, Z6)
	TNZ_TERMS(192, Z10, Z3, Z7)
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $32, R12
	JMP  tszCols32

tszCols8:
	CMPQ R12, $8
	JLT  tszCols4
	TNZ_TERMS(0, Z10, Z0, Z4)
	ADDQ $64, DI
	ADDQ $64, BX
	SUBQ $8, R12
	JMP  tszCols8

tszCols4:
	CMPQ R12, $4
	JLT  tszColsTail
	TN_TERMS(0, Y10, Y0, Y4)
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $4, R12

tszColsTail:
	TESTQ R12, R12
	JZ    tszRowDone
	TN_TAIL_TERMS(Y10)
	LEAQ  (DI)(R12*8), DI

tszRowDone:
	ADDQ $8, AX
	DECQ R13
	JNZ  tszRow
	VZEROUPPER
	RET

	// Four deltas of ±0: written as +0, as in gemmTNStoreAVX2.
tszZeroRow:
	MOVQ n+80(FP), R12

tszZero8:
	CMPQ R12, $8
	JLT  tszZero4
	VMOVUPD Z10, (DI)
	ADDQ $64, DI
	SUBQ $8, R12
	JMP  tszZero8

tszZero4:
	CMPQ    R12, $4
	JLT     tszZeroTail
	VMOVUPD Y10, (DI)
	ADDQ    $32, DI
	SUBQ    $4, R12

tszZeroTail:
	TESTQ   R12, R12
	JZ      tszRowDone
	VMASKMOVPD Y10, Y11, (DI)
	LEAQ       (DI)(R12*8), DI
	JMP        tszRowDone

// GemmNN: lanes are eight consecutive columns of C. A 4-row × 32-column
// block of C stays in sixteen registers while t runs over k (then 4 ×
// 16 in eight), as in the AVX2 kernel; the skip test is per (block of
// four rows, t), as there.

// NNZ_ROW32 adds the products of one A row's delta, broadcast in D, with
// the thirty-two columns of B in Z16..Z19 to that row's accumulators.
#define NNZ_ROW32(D, C0, C1, C2, C3) \
	VMULPD Z16, D, Z24; \
	VMULPD Z17, D, Z25; \
	VMULPD Z18, D, Z26; \
	VMULPD Z19, D, Z27; \
	VADDPD Z24, C0, C0; \
	VADDPD Z25, C1, C1; \
	VADDPD Z26, C2, C2; \
	VADDPD Z27, C3, C3

// func gemmNNAVX512(c, a, b []float64, m, n, k int)
// C += A·B over m rows, m a positive multiple of 4; n, k ≥ 1.
TEXT ·gemmNNAVX512(SB), NOSPLIT, $0-96
	MOVQ c_base+0(FP), DI // C: row 0 of the block, column j
	MOVQ a_base+24(FP), SI // A: row 0 of the block
	MOVQ n+80(FP), R10
	MOVQ k+88(FP), R8
	SHLQ $3, R10 // bytes per B row and per C row
	SHLQ $3, R8 // bytes per A row
	LEAQ (R10)(R10*2), R11
	LEAQ (R8)(R8*2), R9

nnzRows:
	MOVQ b_base+48(FP), DX // B: row 0, column j
	MOVQ n+80(FP), R13 // columns left

	// Thirty-two columns a block while they last: sixteen chains.
nnzCols32:
	CMPQ R13, $32
	JLT  nnzCols16
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD (DI)(R10*1), Z4
	VMOVUPD 64(DI)(R10*1), Z5
	VMOVUPD 128(DI)(R10*1), Z6
	VMOVUPD 192(DI)(R10*1), Z7
	VMOVUPD (DI)(R10*2), Z8
	VMOVUPD 64(DI)(R10*2), Z9
	VMOVUPD 128(DI)(R10*2), Z10
	VMOVUPD 192(DI)(R10*2), Z11
	VMOVUPD (DI)(R11*1), Z12
	VMOVUPD 64(DI)(R11*1), Z13
	VMOVUPD 128(DI)(R11*1), Z14
	VMOVUPD 192(DI)(R11*1), Z15
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ k+88(FP), CX

nnz32Loop:
	SKIP_IF_ZERO4(nnz32Next)
	VMOVUPD (BX), Z16
	VMOVUPD 64(BX), Z17
	VMOVUPD 128(BX), Z18
	VMOVUPD 192(BX), Z19
	VBROADCASTSD (AX), Z20
	VBROADCASTSD (AX)(R8*1), Z21
	VBROADCASTSD (AX)(R8*2), Z22
	VBROADCASTSD (AX)(R9*1), Z23
	NNZ_ROW32(Z20, Z0, Z1, Z2, Z3)
	NNZ_ROW32(Z21, Z4, Z5, Z6, Z7)
	NNZ_ROW32(Z22, Z8, Z9, Z10, Z11)
	NNZ_ROW32(Z23, Z12, Z13, Z14, Z15)

nnz32Next:
	ADDQ $8, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  nnz32Loop
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, (DI)(R10*1)
	VMOVUPD Z5, 64(DI)(R10*1)
	VMOVUPD Z6, 128(DI)(R10*1)
	VMOVUPD Z7, 192(DI)(R10*1)
	VMOVUPD Z8, (DI)(R10*2)
	VMOVUPD Z9, 64(DI)(R10*2)
	VMOVUPD Z10, 128(DI)(R10*2)
	VMOVUPD Z11, 192(DI)(R10*2)
	VMOVUPD Z12, (DI)(R11*1)
	VMOVUPD Z13, 64(DI)(R11*1)
	VMOVUPD Z14, 128(DI)(R11*1)
	VMOVUPD Z15, 192(DI)(R11*1)
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $32, R13
	JMP  nnzCols32

nnzCols16:
	CMPQ R13, $16
	JLT  nnzCols8
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD (DI)(R10*1), Z2
	VMOVUPD 64(DI)(R10*1), Z3
	VMOVUPD (DI)(R10*2), Z4
	VMOVUPD 64(DI)(R10*2), Z5
	VMOVUPD (DI)(R11*1), Z6
	VMOVUPD 64(DI)(R11*1), Z7
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ k+88(FP), CX

nnz16Loop:
	SKIP_IF_ZERO4(nnz16Next)
	VMOVUPD (BX), Z8
	VMOVUPD 64(BX), Z9
	VBROADCASTSD (AX), Z10
	VBROADCASTSD (AX)(R8*1), Z11
	VBROADCASTSD (AX)(R8*2), Z12
	VBROADCASTSD (AX)(R9*1), Z13
	VMULPD Z8, Z10, Z16
	VMULPD Z9, Z10, Z17
	VMULPD Z8, Z11, Z18
	VMULPD Z9, Z11, Z19
	VMULPD Z8, Z12, Z20
	VMULPD Z9, Z12, Z21
	VMULPD Z8, Z13, Z22
	VMULPD Z9, Z13, Z23
	VADDPD Z16, Z0, Z0
	VADDPD Z17, Z1, Z1
	VADDPD Z18, Z2, Z2
	VADDPD Z19, Z3, Z3
	VADDPD Z20, Z4, Z4
	VADDPD Z21, Z5, Z5
	VADDPD Z22, Z6, Z6
	VADDPD Z23, Z7, Z7

nnz16Next:
	ADDQ $8, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  nnz16Loop
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (DI)(R10*1)
	VMOVUPD Z3, 64(DI)(R10*1)
	VMOVUPD Z4, (DI)(R10*2)
	VMOVUPD Z5, 64(DI)(R10*2)
	VMOVUPD Z6, (DI)(R11*1)
	VMOVUPD Z7, 64(DI)(R11*1)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, R13
	JMP  nnzCols16

	// The last n%16 columns, at most eight at a time under a lane mask
	// (a whole vector first when nine or more are left).
nnzCols8:
	TESTQ   R13, R13
	JZ      nnzRowsNext
	MOVQ    $8, CX
	CMPQ    R13, CX
	CMOVQLT R13, CX
	LANE_MASK(K1) // the first min(8, columns left) lanes
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z (DI)(R10*1), K1, Z1
	VMOVUPD.Z (DI)(R10*2), K1, Z2
	VMOVUPD.Z (DI)(R11*1), K1, Z3
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ k+88(FP), CX

nnz8Loop:
	SKIP_IF_ZERO4(nnz8Next)
	VMOVUPD.Z (BX), K1, Z8
	VMULPD.BCST (AX), Z8, Z10
	VMULPD.BCST (AX)(R8*1), Z8, Z11
	VMULPD.BCST (AX)(R8*2), Z8, Z12
	VMULPD.BCST (AX)(R9*1), Z8, Z13
	VADDPD Z10, Z0, Z0
	VADDPD Z11, Z1, Z1
	VADDPD Z12, Z2, Z2
	VADDPD Z13, Z3, Z3

nnz8Next:
	ADDQ $8, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  nnz8Loop
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K1, (DI)(R10*1)
	VMOVUPD Z2, K1, (DI)(R10*2)
	VMOVUPD Z3, K1, (DI)(R11*1)
	CMPQ R13, $8
	JLE  nnzLastCols
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, R13
	JMP  nnzCols8

nnzLastCols:
	LEAQ (DI)(R13*8), DI

nnzRowsNext:
	ADDQ R11, DI // DI walked row 0; the block has three more
	LEAQ (SI)(R8*4), SI
	SUBQ $4, m+72(FP)
	JNZ  nnzRows
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// The element-wise kernels: the Go loop's statement, four elements
// wide. n is a positive multiple of 4 in all of them.

// func addAVX2(v, w []float64, n int)
// v += w.
TEXT ·addAVX2(SB), NOSPLIT, $0-56
	MOVQ v_base+0(FP), DI
	MOVQ w_base+24(FP), SI
	MOVQ n+48(FP), CX
	SHLQ $3, CX
	XORQ AX, AX

addLoop:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     addLoop
	VZEROUPPER
	RET

// func scaleAVX2(v []float64, n int, c float64)
// v *= c.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-40
	MOVQ v_base+0(FP), DI
	MOVQ n+24(FP), CX
	VBROADCASTSD c+32(FP), Y15
	SHLQ $3, CX
	XORQ AX, AX

scaleLoop:
	VMULPD  (DI)(AX*1), Y15, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     scaleLoop
	VZEROUPPER
	RET

// func sgdStepAVX2(p, vel, grad []float64, n int, scale, wd, mom, lr float64) bool
// g = grad·scale + wd·p; v = mom·vel + g; vel = v; p −= lr·v, every
// product rounded before its add and none skipped when its factor is 0.
// Reports whether every p it wrote is finite (see NONFINITE_OR, defined
// with Transpose below; here the lanes gather in Y11 against the mask
// in Y10).
TEXT ·sgdStepAVX2(SB), NOSPLIT, $0-113
	MOVQ p_base+0(FP), DI
	MOVQ vel_base+24(FP), SI
	MOVQ grad_base+48(FP), DX
	MOVQ n+72(FP), CX
	VBROADCASTSD scale+80(FP), Y12
	VBROADCASTSD wd+88(FP), Y13
	VBROADCASTSD mom+96(FP), Y14
	VBROADCASTSD lr+104(FP), Y15
	VBROADCASTSD expBits<>(SB), Y10
	VPXOR Y11, Y11, Y11
	SHLQ $3, CX
	XORQ AX, AX

stepLoop:
	VMOVUPD (DI)(AX*1), Y1
	VMULPD  (DX)(AX*1), Y12, Y0
	VMULPD  Y1, Y13, Y2
	VADDPD  Y2, Y0, Y0 // g
	VMULPD  (SI)(AX*1), Y14, Y3
	VADDPD  Y0, Y3, Y3 // v
	VMOVUPD Y3, (SI)(AX*1)
	VMULPD  Y3, Y15, Y4
	VSUBPD  Y4, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	VANDPD   Y1, Y10, Y1
	VPCMPEQQ Y10, Y1, Y1
	VPOR     Y1, Y11, Y11
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     stepLoop
	VPTEST Y11, Y11
	SETEQ  ret+112(FP)
	VZEROUPPER
	RET

// func sgdStepPlainAVX2(p, grad []float64, n int, scale, wd, lr float64) bool
// p −= lr·(grad·scale + wd·p): sgdStepAVX2 without the velocity's two
// streams, the same rounding, and the same finiteness report.
TEXT ·sgdStepPlainAVX2(SB), NOSPLIT, $0-81
	MOVQ p_base+0(FP), DI
	MOVQ grad_base+24(FP), DX
	MOVQ n+48(FP), CX
	VBROADCASTSD scale+56(FP), Y12
	VBROADCASTSD wd+64(FP), Y13
	VBROADCASTSD lr+72(FP), Y15
	VBROADCASTSD expBits<>(SB), Y10
	VPXOR Y11, Y11, Y11
	SHLQ $3, CX
	XORQ AX, AX

stepPlainLoop:
	VMOVUPD (DI)(AX*1), Y1
	VMULPD  (DX)(AX*1), Y12, Y0
	VMULPD  Y1, Y13, Y2
	VADDPD  Y2, Y0, Y0 // g
	VMULPD  Y0, Y15, Y4
	VSUBPD  Y4, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	VANDPD   Y1, Y10, Y1
	VPCMPEQQ Y10, Y1, Y1
	VPOR     Y1, Y11, Y11
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     stepPlainLoop
	VPTEST Y11, Y11
	SETEQ  ret+80(FP)
	VZEROUPPER
	RET

// func reluAVX2(v []float64, n int)
// if v < 0 { v = 0 }. VMAXPD returns its second source (the memory
// operand here) when the two compare equal or either is a NaN, so −0
// and NaN come back untouched, as the Go statement leaves them; with
// the operands swapped −0 would become +0 and NaN 0.
TEXT ·reluAVX2(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), DI
	MOVQ n+24(FP), CX
	VXORPD Y15, Y15, Y15
	SHLQ $3, CX
	XORQ AX, AX

reluLoop:
	VMAXPD  (DI)(AX*1), Y15, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     reluLoop
	VZEROUPPER
	RET

// func reluMaskAVX2(v, h []float64, n int)
// if h <= 0 { v = 0 }. Predicate 2 is LE, ordered: h <= +0 is true for
// either zero and false for a NaN, as in Go; VANDNPD then keeps v where
// the mask is clear and leaves +0 where it is set, whatever v held.
TEXT ·reluMaskAVX2(SB), NOSPLIT, $0-56
	MOVQ v_base+0(FP), DI
	MOVQ h_base+24(FP), SI
	MOVQ n+48(FP), CX
	VXORPD Y15, Y15, Y15
	SHLQ $3, CX
	XORQ AX, AX

reluMaskLoop:
	VMOVUPD (SI)(AX*1), Y0
	VCMPPD  $2, Y15, Y0, Y1
	VANDNPD (DI)(AX*1), Y1, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     reluMaskLoop
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// Exp: ExpScalar, which is math.Exp's FMA path (Go 1.24's archExp),
// four lanes wide, operation for operation: the same
// reduction by e·ln2 in two fused steps, the same ×1/16, the same
// Horner chain and four (r+2)·r steps, the last one fused, and the same
// scale by 2^e. A lane whose biased exponent e+1023 leaves [1, 2046] is
// one archExp does not take down that straight path — NaN and ±Inf
// convert to the integer indefinite 0x80000000, anything above its
// overflow threshold rounds to e ≥ 1024, a result below the normals to
// e ≤ −1023 — and its group is handed back to ExpScalar unwritten.

// expConst<> holds each constant four times, one 32-byte vector each,
// and the exponent bounds and bias as four int32 lanes.
#define EXP_CONST4(off, v) \
	DATA expConst<>+off(SB)/8, v; \
	DATA expConst<>+off+8(SB)/8, v; \
	DATA expConst<>+off+16(SB)/8, v; \
	DATA expConst<>+off+24(SB)/8, v

EXP_CONST4(0, $1.4426950408889634073599246810018920)            // log2(e)
EXP_CONST4(32, $0.69314718055966295651160180568695068359375)    // ln2, upper half
EXP_CONST4(64, $0.28235290563031577122588448175013436025525412068e-12) // ln2, lower half
EXP_CONST4(96, $0.0625)
EXP_CONST4(128, $2.4801587301587301587e-5)
EXP_CONST4(160, $1.9841269841269841270e-4)
EXP_CONST4(192, $1.3888888888888888889e-3)
EXP_CONST4(224, $8.3333333333333333333e-3)
EXP_CONST4(256, $4.1666666666666666667e-2)
EXP_CONST4(288, $1.6666666666666666667e-1)
EXP_CONST4(320, $0.5)
EXP_CONST4(352, $1.0)
EXP_CONST4(384, $2.0)
DATA expConst<>+416(SB)/8, $0xfffffc01fffffc01 // e > −1023
DATA expConst<>+424(SB)/8, $0xfffffc01fffffc01
DATA expConst<>+432(SB)/8, $0x0000040000000400 // 1024 > e
DATA expConst<>+440(SB)/8, $0x0000040000000400
DATA expConst<>+448(SB)/8, $0x000003ff000003ff // the bias
DATA expConst<>+456(SB)/8, $0x000003ff000003ff
GLOBL expConst<>(SB), RODATA|NOPTR, $464

// func expAVX2(dst, src []float64, n int) int
// dst = ExpScalar(src) for the first n elements (n a multiple of 4,
// possibly 0) up to the first group with a lane out of range; returns the
// number of elements written. A group is read whole before it is written,
// so dst may be src.
TEXT ·expAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ n+48(FP), CX
	SHLQ $3, CX
	XORQ AX, AX
	CMPQ AX, CX
	JGE  expDone

expLoop:
	VMOVUPD (SI)(AX*1), Y0             // x
	VMULPD  expConst<>+0(SB), Y0, Y1
	VCVTPD2DQY Y1, X2                  // e, rounded to nearest
	VPCMPGTD expConst<>+416(SB), X2, X3
	VMOVDQU expConst<>+432(SB), X4
	VPCMPGTD X2, X4, X4
	VPAND   X4, X3, X3
	VMOVMSKPS X3, DX
	CMPL    DX, $15
	JNE     expDone
	VCVTDQ2PD X2, Y1
	VFNMADD231PD expConst<>+32(SB), Y1, Y0 // x − e·ln2u, one rounding
	VFNMADD231PD expConst<>+64(SB), Y1, Y0 // − e·ln2l
	VMULPD  expConst<>+96(SB), Y0, Y0      // r
	VMOVUPD expConst<>+128(SB), Y1
	VFMADD213PD expConst<>+160(SB), Y0, Y1 // p = p·r + c
	VFMADD213PD expConst<>+192(SB), Y0, Y1
	VFMADD213PD expConst<>+224(SB), Y0, Y1
	VFMADD213PD expConst<>+256(SB), Y0, Y1
	VFMADD213PD expConst<>+288(SB), Y0, Y1
	VFMADD213PD expConst<>+320(SB), Y0, Y1
	VFMADD213PD expConst<>+352(SB), Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  expConst<>+384(SB), Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  expConst<>+384(SB), Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  expConst<>+384(SB), Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  expConst<>+384(SB), Y0, Y1
	VFMADD213PD expConst<>+352(SB), Y1, Y0 // r = (r+2)·r + 1
	VPADDD  expConst<>+448(SB), X2, X2
	VPMOVZXDQ X2, Y2
	VPSLLQ  $52, Y2, Y2                    // 2^e
	VMULPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     expLoop

expDone:
	SHRQ $3, AX
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// ArgMaxRows: lanes are four rows. Column j of the four is gathered into
// one register; x > best (ordered, so never for a NaN) picks j into the
// lane's index and VMAXPD, which returns its second source on a tie or
// a NaN, moves best only where that compare holds — Vector.Max's
// statement, with no branch on the data. The index runs as a double
// from −1 and is converted once per row group.

DATA argMaxConst<>+0(SB)/8, $0xfff0000000000000 // −Inf
DATA argMaxConst<>+8(SB)/8, $-1.0
DATA argMaxConst<>+16(SB)/8, $1.0
GLOBL argMaxConst<>(SB), RODATA|NOPTR, $24

// func argMaxRowsAVX2(idx []int, m []float64, rows, cols int)
// rows a positive multiple of 4, cols ≥ 1.
TEXT ·argMaxRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ idx_base+0(FP), DI
	MOVQ m_base+24(FP), SI
	MOVQ rows+48(FP), DX
	MOVQ cols+56(FP), R8
	SHLQ $3, R8 // bytes per row
	LEAQ (R8)(R8*2), R9
	VBROADCASTSD argMaxConst<>+16(SB), Y3

amRows:
	VBROADCASTSD argMaxConst<>+0(SB), Y0 // best
	VBROADCASTSD argMaxConst<>+8(SB), Y1 // its index
	VXORPD Y2, Y2, Y2                    // j
	MOVQ SI, AX
	MOVQ cols+56(FP), CX

amCols:
	VMOVSD  (AX), X4
	VMOVHPD (AX)(R8*1), X4, X4
	VMOVSD  (AX)(R8*2), X5
	VMOVHPD (AX)(R9*1), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VCMPPD    $0x1e, Y0, Y4, Y5 // x > best
	VMAXPD    Y0, Y4, Y0
	VBLENDVPD Y5, Y2, Y1, Y1
	VADDPD    Y3, Y2, Y2
	ADDQ $8, AX
	DECQ CX
	JNZ  amCols

	VCVTTPD2DQY Y1, X1
	VPMOVSXDQ   X1, Y1
	VMOVDQU     Y1, (DI)
	ADDQ $32, DI
	LEAQ (SI)(R8*4), SI
	SUBQ $4, DX
	JNZ  amRows
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// Log: LogScalar, which is math.Log's amd64 assembly (Go 1.24's
// archLog, which uses no FMA), four lanes wide, operation for
// operation: frexp by bit masks — f1 the mantissa under the exponent of
// 0.5, k the biased exponent less 1022, as archLog takes them for
// subnormals too — the √2/2 compare that doubles f1 and takes one from
// k, s = f/(2+f) by a true division, the two polynomials with every
// product rounded before its add, and the same final expression in the
// same order. k is exact in either form: archLog converts the integer,
// here 2^52 + e is built by its bits and 2^52 + 1022 taken away. Every
// lane runs the straight line; the special cases are then blended in
// archLog's order: +Inf and NaN give x, a set sign bit (−NaN too) gives
// archLog's NaN, and ±0 gives −Inf.

#define LOG_CONST4(off, v) \
	DATA logConst<>+off(SB)/8, v; \
	DATA logConst<>+off+8(SB)/8, v; \
	DATA logConst<>+off+16(SB)/8, v; \
	DATA logConst<>+off+24(SB)/8, v

LOG_CONST4(0, $0x000fffffffffffff)   // the mantissa
LOG_CONST4(32, $0x3fe0000000000000)  // 0.5's exponent
LOG_CONST4(64, $0x00000000000007ff)  // the exponent, shifted down
LOG_CONST4(96, $0x4330000000000000)  // 2^52
LOG_CONST4(128, $0x43300000000003fe) // 2^52 + 1022
LOG_CONST4(160, $7.07106781186547524401e-01) // √2/2
LOG_CONST4(192, $1.0)
LOG_CONST4(224, $2.0)
LOG_CONST4(256, $1.479819860511658591e-01) // L7
LOG_CONST4(288, $1.818357216161805012e-01) // L5
LOG_CONST4(320, $2.857142874366239149e-01) // L3
LOG_CONST4(352, $6.666666666666735130e-01) // L1
LOG_CONST4(384, $1.531383769920937332e-01) // L6
LOG_CONST4(416, $2.222219843214978396e-01) // L4
LOG_CONST4(448, $3.999999999940941908e-01) // L2
LOG_CONST4(480, $0.5)
LOG_CONST4(512, $1.90821492927058770002e-10) // Ln2Lo
LOG_CONST4(544, $6.93147180369123816490e-01) // Ln2Hi
LOG_CONST4(576, $0x7fffffffffffffff) // all but the sign
LOG_CONST4(608, $0x7ff0000000000000) // +Inf
LOG_CONST4(640, $0x7ff8000000000001) // archLog's NaN
LOG_CONST4(672, $0xfff0000000000000) // −Inf
GLOBL logConst<>(SB), RODATA|NOPTR, $704

// func logAVX2(dst, src []float64, n int)
// dst = LogScalar(src) for the first n elements, n a positive multiple
// of 4. A group is read whole before it is written, so dst may be src.
TEXT ·logAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ n+48(FP), CX
	SHLQ $3, CX
	XORQ AX, AX
	VPXOR   Y15, Y15, Y15
	VMOVUPD logConst<>+608(SB), Y14 // +Inf
	VMOVUPD logConst<>+640(SB), Y13 // NaN
	VMOVUPD logConst<>+672(SB), Y12 // −Inf

logLoop:
	VMOVUPD (SI)(AX*1), Y0                 // x
	VANDPD  logConst<>+0(SB), Y0, Y2
	VORPD   logConst<>+32(SB), Y2, Y2      // f1
	VPSRLQ  $52, Y0, Y1
	VPAND   logConst<>+64(SB), Y1, Y1
	VPOR    logConst<>+96(SB), Y1, Y1
	VSUBPD  logConst<>+128(SB), Y1, Y1     // k
	VCMPPD  $2, logConst<>+160(SB), Y2, Y3 // f1 <= √2/2: archLog's cmpnlt
	VANDPD  logConst<>+192(SB), Y3, Y3     // 0 or 1
	VSUBPD  Y3, Y1, Y1
	VADDPD  logConst<>+192(SB), Y3, Y3     // 1 or 2
	VMULPD  Y3, Y2, Y2
	VSUBPD  logConst<>+192(SB), Y2, Y2     // f
	VADDPD  logConst<>+224(SB), Y2, Y4
	VDIVPD  Y4, Y2, Y3                     // s
	VMULPD  Y3, Y3, Y4                     // s2
	VMULPD  Y4, Y4, Y5                     // s4
	VMULPD  logConst<>+256(SB), Y5, Y6
	VADDPD  logConst<>+288(SB), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  logConst<>+320(SB), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  logConst<>+352(SB), Y6, Y6
	VMULPD  Y6, Y4, Y4                     // t1
	VMULPD  logConst<>+384(SB), Y5, Y6
	VADDPD  logConst<>+416(SB), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  logConst<>+448(SB), Y6, Y6
	VMULPD  Y6, Y5, Y5                     // t2
	VADDPD  Y5, Y4, Y4                     // R
	VMULPD  logConst<>+480(SB), Y2, Y7
	VMULPD  Y2, Y7, Y7                     // hfsq
	VADDPD  Y7, Y4, Y4
	VMULPD  Y4, Y3, Y3                     // s·(hfsq+R)
	VMULPD  logConst<>+512(SB), Y1, Y4
	VADDPD  Y4, Y3, Y3                     // + k·Ln2Lo
	VSUBPD  Y3, Y7, Y7
	VSUBPD  Y2, Y7, Y7
	VMULPD  logConst<>+544(SB), Y1, Y1
	VSUBPD  Y7, Y1, Y1                     // k·Ln2Hi − (…)
	VPCMPGTQ  Y0, Y14, Y8                  // x < +Inf as integers: not +Inf or NaN
	VBLENDVPD Y8, Y1, Y0, Y1
	VPCMPGTQ  Y0, Y15, Y8                  // the sign bit
	VBLENDVPD Y8, Y13, Y1, Y1
	VANDPD    logConst<>+576(SB), Y0, Y8
	VPCMPEQQ  Y15, Y8, Y8                  // ±0
	VBLENDVPD Y8, Y12, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     logLoop
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// SparseRows: lanes are four consecutive columns of a row of C, held in
// registers for the whole of the row's index list: s = c (or +0 for
// SparseRowsStore); for each p, s += m[idx[p]] (VADDPD), the row of m
// as it is. Thirty-two columns run at once, eight independent add
// chains over p; then four; then the last n%4 under the lane mask.
// Every block walks the row's whole list, and the first block of a row
// checks each index against m's rows before it loads: a row whose span
// leaves idx or runs backwards, or that holds an index outside m, ends
// the call unwritten, and the Go loop panics on it.

// SR_ADD adds the row of m at off(CX) as it is.
#define SR_ADD(off, ACC) \
	VADDPD off(CX), ACC, ACC

// SR_INIT loads the accumulator ACC from off(DI)(R13*1).
#define SR_INIT(off, ACC) \
	VMOVUPD off(DI)(R13*1), ACC

// SR_ROW turns the index idx[p] in CX, checked against m's rows, into
// the address of that row of m at the block's column. (The adds then
// address m without an index register, which keeps each load fused
// with its add.)
#define SR_ROW \
	IMULQ R8, CX; \
	ADDQ  SI, CX; \
	ADDQ  R13, CX

// func sparseRowsAVX2(c, m []float64, n int, ptr, idx []int32, rows, mrows, nnz int, store bool) int
// Rows 0..rows−1 of c (n ≥ 1 columns, stride n) and m (mrows rows,
// stride n); nnz = len(idx). Returns the rows done.
TEXT ·sparseRowsAVX2(SB), NOSPLIT, $0-144
	MOVQ c_base+0(FP), DI // C: row r
	MOVQ m_base+24(FP), SI
	MOVQ ptr_base+56(FP), BX // &ptr[r]
	MOVQ idx_base+80(FP), DX
	MOVQ n+48(FP), R8
	MOVQ R8, CX
	ANDQ $3, CX
	NEGQ CX
	LEAQ tailMask<>+32(SB), AX
	VMOVDQU (AX)(CX*8), Y15 // the first n%4 lanes
	SHLQ $3, R8 // bytes per row of C and of m
	XORQ R10, R10 // r

srRow:
	CMPQ R10, rows+104(FP)
	JGE  srDone
	MOVL (BX), R11 // p from
	MOVL 4(BX), R12 // p to
	CMPQ R11, R12
	JA   srDone
	CMPQ R12, nnz+120(FP)
	JA   srDone
	XORQ R13, R13 // column j, in bytes
	MOVQ n+48(FP), R14 // columns left

srCols32:
	CMPQ R14, $32
	JLT  srCols4
	CMPB store+128(FP), $0
	JNE  sr32Zero
	SR_INIT(0, Y0)
	SR_INIT(32, Y1)
	SR_INIT(64, Y2)
	SR_INIT(96, Y3)
	SR_INIT(128, Y4)
	SR_INIT(160, Y5)
	SR_INIT(192, Y6)
	SR_INIT(224, Y7)
	JMP  sr32Start

sr32Zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

sr32Start:
	MOVQ R11, AX
	CMPQ AX, R12
	JAE  sr32Store

sr32Loop:
	MOVL (DX)(AX*4), CX
	CMPQ CX, mrows+112(FP)
	JAE  srDone
	SR_ROW
	SR_ADD(0, Y0)
	SR_ADD(32, Y1)
	SR_ADD(64, Y2)
	SR_ADD(96, Y3)
	SR_ADD(128, Y4)
	SR_ADD(160, Y5)
	SR_ADD(192, Y6)
	SR_ADD(224, Y7)
	INCQ AX
	CMPQ AX, R12
	JB   sr32Loop

sr32Store:
	VMOVUPD Y0, 0(DI)(R13*1)
	VMOVUPD Y1, 32(DI)(R13*1)
	VMOVUPD Y2, 64(DI)(R13*1)
	VMOVUPD Y3, 96(DI)(R13*1)
	VMOVUPD Y4, 128(DI)(R13*1)
	VMOVUPD Y5, 160(DI)(R13*1)
	VMOVUPD Y6, 192(DI)(R13*1)
	VMOVUPD Y7, 224(DI)(R13*1)
	ADDQ $256, R13
	SUBQ $32, R14
	JMP  srCols32

srCols4:
	CMPQ R14, $4
	JLT  srColsTail
	VXORPD Y0, Y0, Y0
	CMPB store+128(FP), $0
	JNE  sr4Start
	SR_INIT(0, Y0)

sr4Start:
	MOVQ R11, AX
	CMPQ AX, R12
	JAE  sr4Store

sr4Loop:
	MOVL (DX)(AX*4), CX
	CMPQ CX, mrows+112(FP)
	JAE  srDone
	SR_ROW
	SR_ADD(0, Y0)
	INCQ AX
	CMPQ AX, R12
	JB   sr4Loop

sr4Store:
	VMOVUPD Y0, (DI)(R13*1)
	ADDQ $32, R13
	SUBQ $4, R14
	JMP  srCols4

srColsTail:
	TESTQ R14, R14
	JZ    srRowNext
	VXORPD Y0, Y0, Y0
	CMPB  store+128(FP), $0
	JNE   srTailStart
	VMASKMOVPD (DI)(R13*1), Y15, Y0

srTailStart:
	MOVQ R11, AX
	CMPQ AX, R12
	JAE  srTailStore

srTailLoop:
	MOVL (DX)(AX*4), CX
	CMPQ CX, mrows+112(FP)
	JAE  srDone
	SR_ROW
	VMASKMOVPD (CX), Y15, Y9
	VADDPD     Y9, Y0, Y0
	INCQ AX
	CMPQ AX, R12
	JB   srTailLoop

srTailStore:
	VMASKMOVPD Y0, Y15, (DI)(R13*1)

srRowNext:
	ADDQ R8, DI
	ADDQ $4, BX
	INCQ R10
	JMP  srRow

srDone:
	MOVQ R10, ret+136(FP)
	VZEROUPPER
	RET

// func sparseRowsAVX512(c, m []float64, n int, ptr, idx []int32, rows, mrows, nnz int, store bool) int
// sparseRowsAVX2 with eight lanes: sixty-four columns at once, then
// eight, then the AVX2 kernel's four and masked n%4 on the low halves
// of the same registers.
TEXT ·sparseRowsAVX512(SB), NOSPLIT, $0-144
	MOVQ c_base+0(FP), DI // C: row r
	MOVQ m_base+24(FP), SI
	MOVQ ptr_base+56(FP), BX // &ptr[r]
	MOVQ idx_base+80(FP), DX
	MOVQ n+48(FP), R8
	MOVQ R8, CX
	ANDQ $3, CX
	NEGQ CX
	LEAQ tailMask<>+32(SB), AX
	VMOVDQU (AX)(CX*8), Y15 // the first n%4 lanes
	SHLQ $3, R8 // bytes per row of C and of m
	XORQ R10, R10 // r

srzRow:
	CMPQ R10, rows+104(FP)
	JGE  srzDone
	MOVL (BX), R11 // p from
	MOVL 4(BX), R12 // p to
	CMPQ R11, R12
	JA   srzDone
	CMPQ R12, nnz+120(FP)
	JA   srzDone
	XORQ R13, R13 // column j, in bytes
	MOVQ n+48(FP), R14 // columns left

srzCols64:
	CMPQ R14, $64
	JLT  srzCols8
	CMPB store+128(FP), $0
	JNE  srz64Zero
	SR_INIT(0, Z0)
	SR_INIT(64, Z1)
	SR_INIT(128, Z2)
	SR_INIT(192, Z3)
	SR_INIT(256, Z4)
	SR_INIT(320, Z5)
	SR_INIT(384, Z6)
	SR_INIT(448, Z7)
	JMP  srz64Start

srz64Zero:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

srz64Start:
	MOVQ R11, AX
	CMPQ AX, R12
	JAE  srz64Store

srz64Loop:
	MOVL (DX)(AX*4), CX
	CMPQ CX, mrows+112(FP)
	JAE  srzDone
	SR_ROW
	SR_ADD(0, Z0)
	SR_ADD(64, Z1)
	SR_ADD(128, Z2)
	SR_ADD(192, Z3)
	SR_ADD(256, Z4)
	SR_ADD(320, Z5)
	SR_ADD(384, Z6)
	SR_ADD(448, Z7)
	INCQ AX
	CMPQ AX, R12
	JB   srz64Loop

srz64Store:
	VMOVUPD Z0, 0(DI)(R13*1)
	VMOVUPD Z1, 64(DI)(R13*1)
	VMOVUPD Z2, 128(DI)(R13*1)
	VMOVUPD Z3, 192(DI)(R13*1)
	VMOVUPD Z4, 256(DI)(R13*1)
	VMOVUPD Z5, 320(DI)(R13*1)
	VMOVUPD Z6, 384(DI)(R13*1)
	VMOVUPD Z7, 448(DI)(R13*1)
	ADDQ $512, R13
	SUBQ $64, R14
	JMP  srzCols64

srzCols8:
	CMPQ R14, $8
	JLT  srzCols4
	VPXORQ Z0, Z0, Z0
	CMPB store+128(FP), $0
	JNE  srz8Start
	SR_INIT(0, Z0)

srz8Start:
	MOVQ R11, AX
	CMPQ AX, R12
	JAE  srz8Store

srz8Loop:
	MOVL (DX)(AX*4), CX
	CMPQ CX, mrows+112(FP)
	JAE  srzDone
	SR_ROW
	SR_ADD(0, Z0)
	INCQ AX
	CMPQ AX, R12
	JB   srz8Loop

srz8Store:
	VMOVUPD Z0, (DI)(R13*1)
	ADDQ $64, R13
	SUBQ $8, R14
	JMP  srzCols8

srzCols4:
	CMPQ R14, $4
	JLT  srzColsTail
	VXORPD Y0, Y0, Y0
	CMPB store+128(FP), $0
	JNE  srz4Start
	SR_INIT(0, Y0)

srz4Start:
	MOVQ R11, AX
	CMPQ AX, R12
	JAE  srz4Store

srz4Loop:
	MOVL (DX)(AX*4), CX
	CMPQ CX, mrows+112(FP)
	JAE  srzDone
	SR_ROW
	SR_ADD(0, Y0)
	INCQ AX
	CMPQ AX, R12
	JB   srz4Loop

srz4Store:
	VMOVUPD Y0, (DI)(R13*1)
	ADDQ $32, R13
	SUBQ $4, R14
	JMP  srzCols4

srzColsTail:
	TESTQ R14, R14
	JZ    srzRowNext
	VXORPD Y0, Y0, Y0
	CMPB  store+128(FP), $0
	JNE   srzTailStart
	VMASKMOVPD (DI)(R13*1), Y15, Y0

srzTailStart:
	MOVQ R11, AX
	CMPQ AX, R12
	JAE  srzTailStore

srzTailLoop:
	MOVL (DX)(AX*4), CX
	CMPQ CX, mrows+112(FP)
	JAE  srzDone
	SR_ROW
	VMASKMOVPD (CX), Y15, Y9
	VADDPD     Y9, Y0, Y0
	INCQ AX
	CMPQ AX, R12
	JB   srzTailLoop

srzTailStore:
	VMASKMOVPD Y0, Y15, (DI)(R13*1)

srzRowNext:
	ADDQ R8, DI
	ADDQ $4, BX
	INCQ R10
	JMP  srzRow

srzDone:
	MOVQ R10, ret+136(FP)
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// Transpose and Finite. An element is finite unless its exponent bits
// are all set: AND with them, compare equal to them, and OR the lanes
// that are into Y13, which VPTEST then finds all clear or not.

DATA expBits<>+0(SB)/8, $0x7ff0000000000000
GLOBL expBits<>(SB), RODATA|NOPTR, $8

#define NONFINITE_OR(Y, T) \
	VANDPD   Y, Y14, T; \
	VPCMPEQQ Y14, T, T; \
	VPOR     T, Y13, Y13

// func transposeAVX2(dst, src []float64, rows, cols int) bool
// dst[j][i] = src[i][j] over the leading (rows&^3)×(cols&^3) block, both
// at least 4, one 4×4 block at a time (transposed in registers as
// NT_LOAD_A4 does); reports whether the block is finite. The inner loop
// walks down a band of four src columns, so each dst row is written in
// order and each src line is read once while it is still in cache.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-65
	MOVQ dst_base+0(FP), DI // dst: row j, column 0
	MOVQ src_base+24(FP), SI // src: row 0, column j
	MOVQ cols+56(FP), R8
	MOVQ rows+48(FP), R10
	SHLQ $3, R8 // bytes per src row
	SHLQ $3, R10 // bytes per dst row
	LEAQ (R8)(R8*2), R9
	LEAQ (R10)(R10*2), R11
	VBROADCASTSD expBits<>(SB), Y14
	VPXOR Y13, Y13, Y13
	MOVQ cols+56(FP), R12
	SHRQ $2, R12

trCols:
	MOVQ SI, AX // src: rows i..i+3, column j
	MOVQ DI, BX // dst: rows j..j+3, column i
	MOVQ rows+48(FP), R13
	SHRQ $2, R13

trRows:
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(R8*1), Y1
	VMOVUPD (AX)(R8*2), Y2
	VMOVUPD (AX)(R9*1), Y3
	NONFINITE_OR(Y0, Y4)
	NONFINITE_OR(Y1, Y5)
	NONFINITE_OR(Y2, Y6)
	NONFINITE_OR(Y3, Y7)
	VUNPCKLPD Y1, Y0, Y4
	VUNPCKHPD Y1, Y0, Y5
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(R10*1)
	VMOVUPD Y2, (BX)(R10*2)
	VMOVUPD Y3, (BX)(R11*1)
	LEAQ (AX)(R8*4), AX
	ADDQ $32, BX
	DECQ R13
	JNZ  trRows
	ADDQ $32, SI
	LEAQ (DI)(R10*4), DI
	DECQ R12
	JNZ  trCols
	VPTEST Y13, Y13
	SETEQ ret+64(FP)
	VZEROUPPER
	RET

// func finiteAVX2(v []float64, n int) bool
// Whether v[0..n) is finite; n is a positive multiple of 4. Sixteen
// elements a pass, then four.
TEXT ·finiteAVX2(SB), NOSPLIT, $0-33
	MOVQ v_base+0(FP), DI
	MOVQ n+24(FP), CX
	VBROADCASTSD expBits<>(SB), Y14
	VPXOR Y13, Y13, Y13
	SHLQ $3, CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-128, DX // bytes in whole passes of sixteen
	JZ   fin4

fin16:
	VANDPD   (DI)(AX*1), Y14, Y0
	VANDPD   32(DI)(AX*1), Y14, Y1
	VANDPD   64(DI)(AX*1), Y14, Y2
	VANDPD   96(DI)(AX*1), Y14, Y3
	VPCMPEQQ Y14, Y0, Y0
	VPCMPEQQ Y14, Y1, Y1
	VPCMPEQQ Y14, Y2, Y2
	VPCMPEQQ Y14, Y3, Y3
	VPOR     Y0, Y1, Y1
	VPOR     Y2, Y3, Y3
	VPOR     Y1, Y13, Y13
	VPOR     Y3, Y13, Y13
	ADDQ     $128, AX
	CMPQ     AX, DX
	JLT      fin16

fin4:
	CMPQ AX, CX
	JGE  finDone
	VMOVUPD (DI)(AX*1), Y0
	NONFINITE_OR(Y0, Y1)
	ADDQ $32, AX
	JMP  fin4

finDone:
	VPTEST Y13, Y13
	SETEQ  ret+32(FP)
	VZEROUPPER
	RET
