//go:build amd64 && !purego

#include "textflag.h"

// func axpyAVX2(alpha float64, x, y *float64, n int)
//
// y[i] += alpha * x[i] for i in [0, n).
//
// Determinism contract: each element is one VMULPD lane followed by
// one VADDPD lane — the same two IEEE-754 roundings, in the same
// order, as the scalar `y[i] += alpha * x[i]` loop. No FMA (one
// rounding where the contract has two) and no reassociation (AXPY has
// no cross-element sums), so the result is bit-identical to the
// generic kernel for every input, including ±0, ±Inf and denormals.
//
// Layout: 16 elements per main-loop pass (4 × YMM), then a 4-wide
// pass, then scalar VEX tail ops. Unaligned loads throughout — Go
// slices carry no alignment guarantee.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	VBROADCASTSD alpha+0(FP), Y0

	MOVQ CX, BX
	SHRQ $4, BX          // BX = n / 16
	JZ   tail4

loop16:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 64(SI), Y3
	VMOVUPD 96(SI), Y4
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	DECQ    BX
	JNZ     loop16

tail4:
	MOVQ CX, BX
	ANDQ $15, BX         // BX = n % 16
	MOVQ BX, DX
	SHRQ $2, DX          // DX = remaining / 4
	JZ   tail1

loop4:
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     loop4

tail1:
	ANDQ $3, BX          // BX = n % 4
	JZ   done

loop1:
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   BX
	JNZ    loop1

done:
	VZEROUPPER
	RET

// func adamAVX2(c *AdamCoeffs, w, grad, m, v *float64, n int)
//
// One Adam step over n elements, n a positive multiple of 4:
//
//	m = B1*m + C1*g
//	v = B2*v + (C2*g)*g
//	w = w - (LR*(m/BC1)) / (sqrt(v/BC2) + Eps)
//
// Determinism contract: every lane performs the scalar loop's
// operations — one VMULPD, VADDPD, VDIVPD, VSQRTPD or VSUBPD per
// rounded Go operation, in the same association and order — so each
// element is bit-identical to adamGeneric. No FMA and no reciprocal
// approximations. The loads are unaligned.
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), AX
	MOVQ w+8(FP), DI
	MOVQ grad+16(FP), SI
	MOVQ m+24(FP), R8
	MOVQ v+32(FP), R9
	MOVQ n+40(FP), CX
	SHRQ $2, CX             // CX = n / 4
	// AdamCoeffs field order: B1, C1, B2, C2, LR, Eps, BC1, BC2.
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15

adamloop:
	VMOVUPD (SI), Y0        // g
	VMOVUPD (R8), Y1
	VMULPD  Y8, Y1, Y1      // B1*m
	VMULPD  Y9, Y0, Y2      // C1*g
	VADDPD  Y2, Y1, Y1      // m
	VMOVUPD Y1, (R8)
	VMOVUPD (R9), Y3
	VMULPD  Y10, Y3, Y3     // B2*v
	VMULPD  Y11, Y0, Y4     // C2*g
	VMULPD  Y0, Y4, Y4      // (C2*g)*g
	VADDPD  Y4, Y3, Y3      // v
	VMOVUPD Y3, (R9)
	VDIVPD  Y14, Y1, Y1     // m/BC1
	VMULPD  Y1, Y12, Y1     // LR*(m/BC1)
	VDIVPD  Y15, Y3, Y3     // v/BC2
	VSQRTPD Y3, Y3
	VADDPD  Y13, Y3, Y3     // sqrt(v/BC2) + Eps
	VDIVPD  Y3, Y1, Y1      // the step
	VMOVUPD (DI), Y5
	VSUBPD  Y1, Y5, Y5      // w - step
	VMOVUPD Y5, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    CX
	JNZ     adamloop

	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
