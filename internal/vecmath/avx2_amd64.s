#include "textflag.h"

// The AVX2 kernels reproduce the Go loops they replace bit for bit: every
// chain is added in index order, one rounded VMULPD/VMULPS and one rounded
// add per step, never a fused multiply-add. A NaN result is NaN on both
// paths; which operand's payload it carries is left to the Go compiler,
// whose operand order varies between builds. The byte-order kernel does no
// arithmetic: it permutes bytes, so NaN payloads pass through unchanged.

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

// ADD4T adds four chains' products into acc, lane j being chain j: Y1–Y4
// hold chains 0–3's products of elements k…k+3, one chain per register.
// They are transposed so that the four VADDPDs add elements k, k+1, k+2,
// k+3 in that order — the Go loop's chain, four chains at a time. It
// clobbers Y1–Y8.
#define ADD4T(acc) \
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

// GROUP4 widens elements k…k+3 of four float32 rows exactly, scores them
// against the widened query chunk in Y0 and adds the products into the row
// chains of acc, lane j being row j's chain.
#define GROUP4(r0, r1, r2, r3, acc) \
	VCVTPS2PD (r0)(CX*4), Y1; \
	VMULPD    Y0, Y1, Y1; \
	VCVTPS2PD (r1)(CX*4), Y2; \
	VMULPD    Y0, Y2, Y2; \
	VCVTPS2PD (r2)(CX*4), Y3; \
	VMULPD    Y0, Y3, Y3; \
	VCVTPS2PD (r3)(CX*4), Y4; \
	VMULPD    Y0, Y4, Y4; \
	ADD4T(acc)

// func dots8AVX2(q *float32, dim int, rows *[8]*float32, out *[9]float64, norm bool)
TEXT ·dots8AVX2(SB), NOSPLIT, $0-33
	MOVBQZX norm+32(FP), R14
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
	TESTQ     R14, R14
	JZ        dotsrows

	// The ninth chain, Σq², one element at a time, when asked for: a probe
	// needs it once, not once per eight rows.
	VMULPD       Y0, Y0, Y9
	VADDSD       X9, X13, X13
	VPERMILPD    $1, X9, X10
	VADDSD       X10, X13, X13
	VEXTRACTF128 $1, Y9, X9
	VADDSD       X9, X13, X13
	VPERMILPD    $1, X9, X10
	VADDSD       X10, X13, X13

dotsrows:
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

// NORM1 widens elements k…k+3 of one cell exactly and leaves their squares
// in y.
#define NORM1(src, y) \
	VCVTPS2PD (src)(CX*4), y; \
	VMULPD    y, y, y

// func norms4AVX2(vecs *[4]*float32, n int, norm2 *[4]float64)
TEXT ·norms4AVX2(SB), NOSPLIT, $0-24
	MOVQ   vecs+0(FP), AX
	MOVQ   0(AX), SI
	MOVQ   8(AX), DI
	MOVQ   16(AX), R8
	MOVQ   24(AX), R9
	MOVQ   n+8(FP), DX
	VXORPD Y9, Y9, Y9 // the four cells' Σx² chains
	XORQ   CX, CX

normsloop:
	NORM1(SI, Y1)
	NORM1(DI, Y2)
	NORM1(R8, Y3)
	NORM1(R9, Y4)
	ADD4T(Y9)
	ADDQ $4, CX
	CMPQ CX, DX
	JLT  normsloop

	MOVQ    norm2+16(FP), AX
	VMOVUPD Y9, 0(AX)
	VZEROUPPER
	RET

// func weightedSumAVX2(w1, w2 float32, dst, a, b *float32, n int)
TEXT ·weightedSumAVX2(SB), NOSPLIT, $0-40
	VBROADCASTSS w1+0(FP), Y0
	VBROADCASTSS w2+4(FP), Y1
	MOVQ         dst+8(FP), DI
	MOVQ         a+16(FP), SI
	MOVQ         b+24(FP), BX
	MOVQ         n+32(FP), DX
	XORQ         CX, CX

wsumloop:
	VMOVUPS (SI)(CX*4), Y2
	VMULPS  Y0, Y2, Y2
	VMOVUPS (BX)(CX*4), Y3
	VMULPS  Y1, Y3, Y3
	VADDPS  Y3, Y2, Y2
	VMOVUPS Y2, (DI)(CX*4)
	ADDQ    $8, CX
	CMPQ    CX, DX
	JLT     wsumloop

	VZEROUPPER
	RET

// bswapMask reverses the bytes of each 32-bit word of a 128-bit lane.
DATA bswapMask<>+0x00(SB)/8, $0x0405060700010203
DATA bswapMask<>+0x08(SB)/8, $0x0c0d0e0f08090a0b
DATA bswapMask<>+0x10(SB)/8, $0x0405060700010203
DATA bswapMask<>+0x18(SB)/8, $0x0c0d0e0f08090a0b
GLOBL bswapMask<>(SB), RODATA|NOPTR, $32

// func bswap32AVX2(dst, src unsafe.Pointer, n int)
TEXT ·bswap32AVX2(SB), NOSPLIT, $0-24
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), DX
	VMOVDQU bswapMask<>(SB), Y0
	XORQ    CX, CX
	MOVQ    DX, AX
	ANDQ    $-128, AX
	JZ      bswaptail

bswaploop:
	VMOVDQU (SI)(CX*1), Y1
	VMOVDQU 32(SI)(CX*1), Y2
	VMOVDQU 64(SI)(CX*1), Y3
	VMOVDQU 96(SI)(CX*1), Y4
	VPSHUFB Y0, Y1, Y1
	VPSHUFB Y0, Y2, Y2
	VPSHUFB Y0, Y3, Y3
	VPSHUFB Y0, Y4, Y4
	VMOVDQU Y1, (DI)(CX*1)
	VMOVDQU Y2, 32(DI)(CX*1)
	VMOVDQU Y3, 64(DI)(CX*1)
	VMOVDQU Y4, 96(DI)(CX*1)
	ADDQ    $128, CX
	CMPQ    CX, AX
	JLT     bswaploop

bswaptail:
	CMPQ    CX, DX
	JGE     bswapdone
	VMOVDQU (SI)(CX*1), Y1
	VPSHUFB Y0, Y1, Y1
	VMOVDQU Y1, (DI)(CX*1)
	ADDQ    $32, CX
	JMP     bswaptail

bswapdone:
	VZEROUPPER
	RET
