#include "textflag.h"

// AVX2 kernels of the nodal solve (see linalg.go). Each repeats the IEEE
// operations of its Go kernel entry for entry: VMULPD then VADDPD, never
// a fused multiply-add, with the accumulator as the first operand of
// every add as in the Go code. Only VEX encodings are used, and every
// kernel ends in VZEROUPPER, so the legacy-SSE code the Go compiler emits
// pays no AVX/SSE transition penalty.

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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dotAVX2(x, y []float64) float64
//
// Y0's four lanes are dotGo's s0..s3. s2 and s3 move to X2 before the
// scalar tail, whose VEX.128 adds into s0 zero Y0's upper half.
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ CX, DX
	ANDQ $~3, DX
	XORQ AX, AX
	VXORPD Y0, Y0, Y0

dot4:
	CMPQ AX, DX
	JGE  dotlanes
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (DI)(AX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, AX
	JMP     dot4

dotlanes:
	VEXTRACTF128 $1, Y0, X2

dot1:
	CMPQ   AX, CX
	JGE    dotsum
	VMOVSD (SI)(AX*8), X1
	VMULSD (DI)(AX*8), X1, X1
	VADDSD X1, X0, X0
	INCQ   AX
	JMP    dot1

dotsum:
	VUNPCKHPD X0, X0, X1
	VADDSD    X1, X0, X0
	VUNPCKHPD X2, X2, X3
	VADDSD    X3, X2, X2
	VADDSD    X2, X0, X0
	VMOVSD    X0, ret+48(FP)
	VZEROUPPER
	RET

// func axpyAVX2(y, x []float64, a float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	VBROADCASTSD a+48(FP), Y0
	MOVQ         CX, DX
	ANDQ         $~3, DX
	XORQ         AX, AX

axpy4:
	CMPQ    AX, DX
	JGE     axpy1
	VMULPD  (SI)(AX*8), Y0, Y1
	VMOVUPD (DI)(AX*8), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     axpy4

axpy1:
	CMPQ   AX, CX
	JGE    axpydone
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD (DI)(AX*8), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX
	JMP    axpy1

axpydone:
	VZEROUPPER
	RET

// func scaleAVX2(x, r []float64)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), DI
	MOVQ r_base+24(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ CX, DX
	ANDQ $~3, DX
	XORQ AX, AX

scale4:
	CMPQ    AX, DX
	JGE     scale1
	VMOVUPD (DI)(AX*8), Y1
	VMULPD  (SI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     scale4

scale1:
	CMPQ   AX, CX
	JGE    scaledone
	VMOVSD (DI)(AX*8), X1
	VMULSD (SI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    scale1

scaledone:
	VZEROUPPER
	RET

// PAIRSTEP multiplies the broadcast a0[k] (Y0) and a1[k] (Y1) by the
// panel vector P and adds the products into row 0's accumulator ACC0 and
// row 1's ACC1; T is a temporary.
#define PAIRSTEP(P, ACC0, ACC1, T) \
	VMULPD P, Y0, T;       \
	VADDPD T, ACC0, ACC0;  \
	VMULPD P, Y1, T;       \
	VADDPD T, ACC1, ACC1

// func pairsAVX2(c0, c1, a0, a1, p []float64)
//
// p holds the columns in groups of 16, each k-major: column j's k-th
// entry is at p[(j/16)·16·K + k·16 + j%16], K = len(a0). Full groups take
// eight accumulators (enough adds in flight to hide their latency); the
// columns of a last partial group go in blocks of 4, then 2 (len(c0) is
// even, as for dot2x2). For each
// block the k loop runs over all of a0, reading one 16-float row of the
// group per k.
TEXT ·pairsAVX2(SB), NOSPLIT, $0-120
	MOVQ c0_base+0(FP), DI
	MOVQ c1_base+24(FP), SI
	MOVQ c0_len+8(FP), CX
	MOVQ a0_base+48(FP), R8
	MOVQ a1_base+72(FP), R9
	MOVQ a0_len+56(FP), DX
	MOVQ p_base+96(FP), R10
	MOVQ $128, R11
	MOVQ DX, BX
	SHLQ $7, BX

pairs16:
	CMPQ   CX, $16
	JLT    pairs4
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	MOVQ   R10, R13
	XORQ   R12, R12

pairs16k:
	VBROADCASTSD (R8)(R12*8), Y0
	VBROADCASTSD (R9)(R12*8), Y1
	VMOVUPD      (R13), Y2
	VMOVUPD      32(R13), Y3
	VMOVUPD      64(R13), Y4
	VMOVUPD      96(R13), Y5
	PAIRSTEP(Y2, Y8, Y12, Y6)
	PAIRSTEP(Y3, Y9, Y13, Y7)
	PAIRSTEP(Y4, Y10, Y14, Y6)
	PAIRSTEP(Y5, Y11, Y15, Y7)
	ADDQ         R11, R13
	INCQ         R12
	CMPQ         R12, DX
	JLT          pairs16k

	VMOVUPD (DI), Y2
	VMOVUPD 32(DI), Y3
	VMOVUPD 64(DI), Y4
	VMOVUPD 96(DI), Y5
	VSUBPD  Y8, Y2, Y2
	VSUBPD  Y9, Y3, Y3
	VSUBPD  Y10, Y4, Y4
	VSUBPD  Y11, Y5, Y5
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	VMOVUPD Y4, 64(DI)
	VMOVUPD Y5, 96(DI)
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VMOVUPD 64(SI), Y4
	VMOVUPD 96(SI), Y5
	VSUBPD  Y12, Y2, Y2
	VSUBPD  Y13, Y3, Y3
	VSUBPD  Y14, Y4, Y4
	VSUBPD  Y15, Y5, Y5
	VMOVUPD Y2, (SI)
	VMOVUPD Y3, 32(SI)
	VMOVUPD Y4, 64(SI)
	VMOVUPD Y5, 96(SI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	ADDQ    BX, R10
	SUBQ    $16, CX
	JMP     pairs16

pairs4:
	CMPQ   CX, $4
	JLT    pairs2
	VXORPD Y8, Y8, Y8
	VXORPD Y12, Y12, Y12
	MOVQ   R10, R13
	XORQ   R12, R12

pairs4k:
	VBROADCASTSD (R8)(R12*8), Y0
	VBROADCASTSD (R9)(R12*8), Y1
	VMOVUPD      (R13), Y2
	PAIRSTEP(Y2, Y8, Y12, Y6)
	ADDQ         R11, R13
	INCQ         R12
	CMPQ         R12, DX
	JLT          pairs4k

	VMOVUPD (DI), Y2
	VSUBPD  Y8, Y2, Y2
	VMOVUPD Y2, (DI)
	VMOVUPD (SI), Y2
	VSUBPD  Y12, Y2, Y2
	VMOVUPD Y2, (SI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R10
	SUBQ    $4, CX
	JMP     pairs4

pairs2:
	CMPQ   CX, $2
	JLT    pairsdone
	VXORPD X8, X8, X8
	VXORPD X12, X12, X12
	MOVQ   R10, R13
	XORQ   R12, R12

pairs2k:
	VMOVDDUP (R8)(R12*8), X0
	VMOVDDUP (R9)(R12*8), X1
	VMOVUPD  (R13), X2
	VMULPD   X2, X0, X6
	VADDPD   X6, X8, X8
	VMULPD   X2, X1, X6
	VADDPD   X6, X12, X12
	ADDQ     R11, R13
	INCQ     R12
	CMPQ     R12, DX
	JLT      pairs2k

	VMOVUPD (DI), X2
	VSUBPD  X8, X2, X2
	VMOVUPD X2, (DI)
	VMOVUPD (SI), X2
	VSUBPD  X12, X2, X2
	VMOVUPD X2, (SI)

pairsdone:
	VZEROUPPER
	RET

// CHOLSTEP adds the products of the broadcast L entry LK with lanes 0-3
// and 4-7 of t at byte offset OFF (from R10) into ACC0 and ACC1.
#define CHOLSTEP(LK, OFF, ACC0, ACC1) \
	VMOVUPD OFF(R10), Y5;     \
	VMOVUPD OFF+32(R10), Y6;  \
	VMULPD  LK, Y5, Y5;       \
	VMULPD  LK, Y6, Y6;       \
	VADDPD  Y5, ACC0, ACC0;   \
	VADDPD  Y6, ACC1, ACC1

// func cholRowsAVX2(t, l []float64, ldl int)
//
// t holds eight rows of a column block in lanes, k-major (t[8k+r]), over
// w = len(t)/8 columns; l is the block's factored diagonal part, row j at
// l[j·ldl:]. For each column j in order, every lane r becomes
// (t[8j+r] − dot(row r's t[:j], l[j·ldl:j·ldl+j])) / l[j·ldl+j], dot's
// four partial sums s0..s3 held in Y8/Y9 .. Y14/Y15 (lanes 0-3 / 4-7).
TEXT ·cholRowsAVX2(SB), NOSPLIT, $0-56
	MOVQ t_base+0(FP), DI
	MOVQ t_len+8(FP), CX
	SHRQ $3, CX
	MOVQ l_base+24(FP), R9
	MOVQ ldl+48(FP), R11
	SHLQ $3, R11
	XORQ R8, R8

cholcol:
	CMPQ   R8, CX
	JGE    choldone
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	MOVQ   R8, DX
	ANDQ   $~3, DX
	XORQ   AX, AX
	MOVQ   DI, R10

chol4:
	CMPQ         AX, DX
	JGE          chol1
	VBROADCASTSD (R9)(AX*8), Y0
	VBROADCASTSD 8(R9)(AX*8), Y1
	VBROADCASTSD 16(R9)(AX*8), Y2
	VBROADCASTSD 24(R9)(AX*8), Y3
	CHOLSTEP(Y0, 0, Y8, Y9)
	CHOLSTEP(Y1, 64, Y10, Y11)
	CHOLSTEP(Y2, 128, Y12, Y13)
	CHOLSTEP(Y3, 192, Y14, Y15)
	ADDQ         $4, AX
	ADDQ         $256, R10
	JMP          chol4

chol1:
	CMPQ         AX, R8
	JGE          cholsum
	VBROADCASTSD (R9)(AX*8), Y0
	CHOLSTEP(Y0, 0, Y8, Y9)
	INCQ         AX
	ADDQ         $64, R10
	JMP          chol1

cholsum:
	// (s0+s1)+(s2+s3); R10 is at column j.
	VADDPD       Y10, Y8, Y8
	VADDPD       Y11, Y9, Y9
	VADDPD       Y14, Y12, Y12
	VADDPD       Y15, Y13, Y13
	VADDPD       Y12, Y8, Y8
	VADDPD       Y13, Y9, Y9
	VMOVUPD      (R10), Y5
	VMOVUPD      32(R10), Y6
	VSUBPD       Y8, Y5, Y5
	VSUBPD       Y9, Y6, Y6
	VBROADCASTSD (R9)(R8*8), Y0
	VDIVPD       Y0, Y5, Y5
	VDIVPD       Y0, Y6, Y6
	VMOVUPD      Y5, (R10)
	VMOVUPD      Y6, 32(R10)
	INCQ         R8
	ADDQ         R11, R9
	JMP          cholcol

choldone:
	VZEROUPPER
	RET

// func transposeAVX2(dst []float64, ldd int, src []float64, lds, rows, cols int)
//
// dst[c·ldd+r] = src[r·lds+c] for r < rows and c < cols, both multiples
// of 4, by 4×4 blocks.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ ldd+24(FP), R8
	SHLQ $3, R8
	MOVQ src_base+32(FP), SI
	MOVQ lds+56(FP), R9
	SHLQ $3, R9
	MOVQ rows+64(FP), CX
	MOVQ cols+72(FP), DX
	LEAQ (R9)(R9*2), R10
	LEAQ (R8)(R8*2), R11
	XORQ AX, AX

trows:
	CMPQ AX, CX
	JGE  tdone
	MOVQ SI, R12
	MOVQ DI, R13
	XORQ BX, BX

tcols:
	CMPQ       BX, DX
	JGE        tnext
	VMOVUPD    (R12), Y0
	VMOVUPD    (R12)(R9*1), Y1
	VMOVUPD    (R12)(R9*2), Y2
	VMOVUPD    (R12)(R10*1), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD    Y0, (R13)
	VMOVUPD    Y1, (R13)(R8*1)
	VMOVUPD    Y2, (R13)(R8*2)
	VMOVUPD    Y3, (R13)(R11*1)
	ADDQ       $32, R12
	LEAQ       (R13)(R8*4), R13
	ADDQ       $4, BX
	JMP        tcols

tnext:
	LEAQ (SI)(R9*4), SI
	ADDQ $32, DI
	ADDQ $4, AX
	JMP  trows

tdone:
	VZEROUPPER
	RET
