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

// BLOCKK widens element k of one block's four rows with one VCVTPS2PD from
// mem, multiplies them by the broadcast q64[k] in Y0 and adds the products
// into acc, lane j being row j's chain.
#define BLOCKK(mem, tmp, acc) \
	VCVTPS2PD mem, tmp; \
	VMULPD    Y0, tmp, tmp; \
	VADDPD    tmp, acc, acc

// NORMK adds q64[k]², from the low lane of Y0, to the Σq² chain in X9.
#define NORMK \
	VMULSD X0, X0, X5; \
	VADDSD X5, X9, X9

// func blocksAVX2(q *float32, q64 *float64, dim int, blocks *float32, nblk int, dots *float64)
//
// Widens q into q64, then scores the nblk column-interleaved blocks: lane j
// of block b adds q64[k]·widen(blk[k*4+j]) for k = 0…dim−1 in that order,
// the Go loop's chain, and lands in dots[4b+j]. A pass scores up to four
// blocks against each broadcast q64[k], so up to 16 chains are in flight;
// the last one to three blocks take one pass of their width. The first pass
// also carries Σq² as a scalar chain in index order, stored at dots[4·nblk].
// dim and nblk must be positive.
TEXT ·blocksAVX2(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), SI
	MOVQ q64+8(FP), R9
	MOVQ dim+16(FP), DX
	MOVQ blocks+24(FP), AX
	MOVQ nblk+32(FP), BX
	MOVQ dots+40(FP), DI

	// The widened query: four elements per VCVTPS2PD, the last dim%4 one
	// at a time. Widening is exact.
	XORQ CX, CX
	MOVQ DX, R8
	ANDQ $-4, R8
	JZ   widentail

widenloop:
	VCVTPS2PD (SI)(CX*4), Y0
	VMOVUPD   Y0, (R9)(CX*8)
	ADDQ      $4, CX
	CMPQ      CX, R8
	JLT       widenloop

widentail:
	CMPQ      CX, DX
	JGE       widened
	VCVTSS2SD (SI)(CX*4), X0, X0
	VMOVSD    X0, (R9)(CX*8)
	INCQ      CX
	JMP       widentail

widened:
	MOVQ   DX, R10
	SHLQ   $4, R10     // one block's bytes: dim × 4 lanes × 4 bytes
	VXORPD X9, X9, X9  // Σq²
	MOVQ   $1, R14     // Σq² still to be summed, by the first pass

passes:
	TESTQ BX, BX
	JZ    done

	// Each pass: R11 and R12 walk element k of its blocks 0 and 1; blocks
	// 2 and 3 lie 2·R10 bytes further on.
	MOVQ   AX, R11
	LEAQ   (AX)(R10*1), R12
	XORQ   CX, CX
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	CMPQ   BX, $4
	JGE    quadloop
	CMPQ   BX, $3
	JEQ    tripleloop
	CMPQ   BX, $2
	JEQ    pairloop

singleloop:
	VBROADCASTSD (R9)(CX*8), Y0
	BLOCKK((R11), Y1, Y10)
	TESTQ        R14, R14
	JZ           singlenext
	NORMK

singlenext:
	ADDQ $16, R11
	INCQ CX
	CMPQ CX, DX
	JLT  singleloop
	MOVQ $1, R8
	JMP  stored

pairloop:
	VBROADCASTSD (R9)(CX*8), Y0
	BLOCKK((R11), Y1, Y10)
	BLOCKK((R12), Y2, Y11)
	TESTQ        R14, R14
	JZ           pairnext
	NORMK

pairnext:
	ADDQ $16, R11
	ADDQ $16, R12
	INCQ CX
	CMPQ CX, DX
	JLT  pairloop
	MOVQ $2, R8
	JMP  stored

tripleloop:
	VBROADCASTSD (R9)(CX*8), Y0
	BLOCKK((R11), Y1, Y10)
	BLOCKK((R12), Y2, Y11)
	BLOCKK((R11)(R10*2), Y3, Y12)
	TESTQ        R14, R14
	JZ           triplenext
	NORMK

triplenext:
	ADDQ $16, R11
	ADDQ $16, R12
	INCQ CX
	CMPQ CX, DX
	JLT  tripleloop
	MOVQ $3, R8
	JMP  stored

quadloop:
	VBROADCASTSD (R9)(CX*8), Y0
	BLOCKK((R11), Y1, Y10)
	BLOCKK((R12), Y2, Y11)
	BLOCKK((R11)(R10*2), Y3, Y12)
	BLOCKK((R12)(R10*2), Y4, Y13)
	TESTQ        R14, R14
	JZ           quadnext
	NORMK

quadnext:
	ADDQ $16, R11
	ADDQ $16, R12
	INCQ CX
	CMPQ CX, DX
	JLT  quadloop
	MOVQ $4, R8

stored:
	// The pass scored R8 blocks: store their chains and step past them.
	VMOVUPD Y10, 0(DI)
	CMPQ    R8, $2
	JLT     advance
	VMOVUPD Y11, 32(DI)
	CMPQ    R8, $3
	JLT     advance
	VMOVUPD Y12, 64(DI)
	CMPQ    R8, $4
	JLT     advance
	VMOVUPD Y13, 96(DI)

advance:
	SUBQ  R8, BX
	MOVQ  R8, R13
	SHLQ  $5, R13   // 32 bytes of dots per block
	ADDQ  R13, DI
	IMULQ R10, R8   // and R10 bytes of blocks
	ADDQ  R8, AX
	XORQ  R14, R14
	JMP   passes

done:
	VMOVSD X9, 0(DI)
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
