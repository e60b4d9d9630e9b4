#include "textflag.h"

// The AVX2 tier of the blocked GEMM kernels in matrix.go (and, at the
// end, of the element-wise kernels in vector.go). Each GEMM kernel
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
// cover the adder's latency.

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

#define NT_STEP1(A, off) \
	VBROADCASTSD off(BX), Y12; \
	VMULPD A, Y12, Y12; \
	VADDPD Y12, Y0, Y0

// func gemmNTAVX2(c, a, b []float64, m, n, k int)
// C += A·Bᵀ over m rows, m a positive multiple of 4; n, k ≥ 1.
TEXT ·gemmNTAVX2(SB), NOSPLIT, $0-96
	MOVQ c_base+0(FP), DI // C: row 0 of the block, column j
	MOVQ a_base+24(FP), SI // A: row 0 of the block
	MOVQ n+80(FP), R10
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
	JLT  ntCols1
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
	ADDQ R8, DX
	DECQ R13
	JMP  ntCols1

ntRowsNext:
	ADDQ R11, DI // DI walked row 0; the block has three more
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

// func sgdStepAVX2(p, vel, grad []float64, n int, scale, wd, mom, lr float64)
// g = grad·scale + wd·p; v = mom·vel + g; vel = v; p −= lr·v, every
// product rounded before its add and none skipped when its factor is 0.
TEXT ·sgdStepAVX2(SB), NOSPLIT, $0-112
	MOVQ p_base+0(FP), DI
	MOVQ vel_base+24(FP), SI
	MOVQ grad_base+48(FP), DX
	MOVQ n+72(FP), CX
	VBROADCASTSD scale+80(FP), Y12
	VBROADCASTSD wd+88(FP), Y13
	VBROADCASTSD mom+96(FP), Y14
	VBROADCASTSD lr+104(FP), Y15
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
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     stepLoop
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
