#include "textflag.h"

// signShifts moves bit l of a sign byte to bit 31 of lane l.
DATA signShifts<>+0(SB)/4, $31
DATA signShifts<>+4(SB)/4, $30
DATA signShifts<>+8(SB)/4, $29
DATA signShifts<>+12(SB)/4, $28
DATA signShifts<>+16(SB)/4, $27
DATA signShifts<>+20(SB)/4, $26
DATA signShifts<>+24(SB)/4, $25
DATA signShifts<>+28(SB)/4, $24
GLOBL signShifts<>(SB), RODATA|NOPTR, $32

// SQUARES4 adds the squares of the four float64 lanes of Y3 to the sum in
// X12, lane 0 first: the Go loop's one chain, in index order.
#define SQUARES4 \
	VMULPD       Y3, Y3, Y3; \
	VADDSD       X3, X12, X12; \
	VPERMILPD    $1, X3, X4; \
	VADDSD       X4, X12, X12; \
	VEXTRACTF128 $1, Y3, X3; \
	VADDSD       X3, X12, X12; \
	VPERMILPD    $1, X3, X4; \
	VADDSD       X4, X12, X12

// CHUNK writes the eight elements at byte offset off + CX, whose signs are
// the low byte of every lane of Y13, then shifts the next byte down.
#define CHUNK(off) \
	VMULPS       off(SI)(CX*1), Y5, Y0; \
	VMULPS       off(R8)(CX*1), Y6, Y1; \
	VADDPS       Y1, Y0, Y0; \
	VMULPS       off(R9)(CX*1), Y7, Y1; \
	VADDPS       Y1, Y0, Y0; \
	VMULPS       off(R10)(CX*1), Y8, Y1; \
	VADDPS       Y1, Y0, Y0; \
	VMULPS       off(R11)(CX*1), Y9, Y1; \
	VADDPS       Y1, Y0, Y0; \
	VMULPS       off(R12)(CX*1), Y10, Y1; \
	VPSLLVD      Y14, Y13, Y2; \
	VPAND        Y11, Y2, Y2; \
	VXORPS       Y2, Y1, Y1; \
	VADDPS       Y1, Y0, Y0; \
	VMOVUPS      Y0, off(DI)(CX*1); \
	VPSRLD       $8, Y13, Y13; \
	VCVTPS2PD    X0, Y3; \
	SQUARES4; \
	VEXTRACTF128 $1, Y0, X0; \
	VCVTPS2PD    X0, Y3; \
	SQUARES4

// func accumulateAVX2(dst, base, conf, cent, shift, common, row *float32, w *[6]float32, signs *[model.Dim / 64]uint64, n int) float64
TEXT ·accumulateAVX2(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ base+8(FP), SI
	MOVQ conf+16(FP), R8
	MOVQ cent+24(FP), R9
	MOVQ shift+32(FP), R10
	MOVQ common+40(FP), R11
	MOVQ row+48(FP), R12
	MOVQ w+56(FP), AX
	MOVQ signs+64(FP), R13
	MOVQ n+72(FP), DX
	SHLQ $2, DX

	VBROADCASTSS 0(AX), Y5   // wb
	VBROADCASTSS 4(AX), Y6   // wc
	VBROADCASTSS 8(AX), Y7   // wm
	VBROADCASTSS 12(AX), Y8  // sw
	VBROADCASTSS 16(AX), Y9  // shared
	VBROADCASTSS 20(AX), Y10 // a
	VPCMPEQD     Y11, Y11, Y11
	VPSLLD       $31, Y11, Y11 // the float32 sign bit
	VMOVDQU      signShifts<>(SB), Y14
	VXORPD       X12, X12, X12
	XORQ         CX, CX

loop:
	// 32 elements per sign dword, 8 per byte.
	VPBROADCASTD (R13), Y13
	CHUNK(0)
	CHUNK(32)
	CHUNK(64)
	CHUNK(96)
	ADDQ $4, R13
	ADDQ $128, CX
	CMPQ CX, DX
	JLT  loop

	VMOVSD X12, ret+80(FP)
	VZEROUPPER
	RET
