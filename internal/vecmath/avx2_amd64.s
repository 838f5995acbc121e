#include "textflag.h"

// The AVX2 kernels reproduce the Go loops they replace bit for bit: every
// chain is added in index order, one rounded VMULPD/VMULPS and one rounded
// add per step, never a fused multiply-add. A NaN result is NaN on both
// paths; which operand's payload it carries is left to the Go compiler,
// whose operand order varies between builds.

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

// GROUP4 scores four rows against the widened query chunk in Y0 and adds
// the products into the row chains of acc, lane j being row j's chain.
// Each row's four products are transposed so that the four VADDPDs add
// elements k, k+1, k+2, k+3 in that order — the Go loop's chain, four rows
// at a time.
#define GROUP4(r0, r1, r2, r3, acc) \
	VMOVUPD (r0)(CX*8), Y1; \
	VMULPD  Y0, Y1, Y1; \
	VMOVUPD (r1)(CX*8), Y2; \
	VMULPD  Y0, Y2, Y2; \
	VMOVUPD (r2)(CX*8), Y3; \
	VMULPD  Y0, Y3, Y3; \
	VMOVUPD (r3)(CX*8), Y4; \
	VMULPD  Y0, Y4, Y4; \
	VUNPCKLPD Y2, Y1, Y5; \
	VUNPCKHPD Y2, Y1, Y6; \
	VUNPCKLPD Y4, Y3, Y7; \
	VUNPCKHPD Y4, Y3, Y8; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x20, Y8, Y6, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3; \
	VPERM2F128 $0x31, Y8, Y6, Y4; \
	VADDPD  Y1, acc, acc; \
	VADDPD  Y2, acc, acc; \
	VADDPD  Y3, acc, acc; \
	VADDPD  Y4, acc, acc

// func dots8AVX2(q *float32, dim int, rows *[8]*float64, out *[9]float64)
TEXT ·dots8AVX2(SB), NOSPLIT, $0-32
	MOVQ q+0(FP), SI
	MOVQ dim+8(FP), DX
	MOVQ rows+16(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ 32(AX), R12
	MOVQ 40(AX), R13
	MOVQ 48(AX), BX
	MOVQ 56(AX), DI
	VXORPD Y13, Y13, Y13 // the query's squared norm, lane 0
	VXORPD Y14, Y14, Y14 // chains of rows 0–3
	VXORPD Y15, Y15, Y15 // chains of rows 4–7
	XORQ   CX, CX

dotsloop:
	VCVTPS2PD (SI)(CX*4), Y0

	// The ninth chain, Σq², one element at a time.
	VMULPD       Y0, Y0, Y9
	VADDSD       X9, X13, X13
	VPERMILPD    $1, X9, X10
	VADDSD       X10, X13, X13
	VEXTRACTF128 $1, Y9, X9
	VADDSD       X9, X13, X13
	VPERMILPD    $1, X9, X10
	VADDSD       X10, X13, X13

	GROUP4(R8, R9, R10, R11, Y14)
	GROUP4(R12, R13, BX, DI, Y15)

	ADDQ $4, CX
	CMPQ CX, DX
	JLT  dotsloop

	MOVQ    out+24(FP), AX
	VMOVUPD Y14, 0(AX)
	VMOVUPD Y15, 32(AX)
	VMOVSD  X13, 64(AX)
	VZEROUPPER
	RET

// func scaleAVX2(alpha float32, v *float32, n int)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-24
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ         v+8(FP), DI
	MOVQ         n+16(FP), DX
	XORQ         CX, CX

scaleloop:
	VMOVUPS (DI)(CX*4), Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)(CX*4)
	ADDQ    $8, CX
	CMPQ    CX, DX
	JLT     scaleloop

	VZEROUPPER
	RET
