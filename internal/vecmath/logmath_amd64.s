//go:build amd64 && !purego

#include "textflag.h"

// 4-wide copies of the Go standard library's amd64 math.Log
// (src/math/log_amd64.s) and math.Hypot (src/math/hypot_amd64.s).
//
// Each lane performs the scalar routine's operations one for one — the
// same IEEE-754 roundings on the same operands in the same order, each
// SSE2 scalar op (ADDSD, MULSD, DIVSD, SQRTSD, MAXSD, MINSD, CMPSD)
// becoming its packed VEX twin — so every lane is bit-identical to the
// stdlib for every input the stdlib sends down its main path. No FMA
// (one rounding where the stdlib has two) and no reciprocal
// approximation. The lanes the stdlib treats as special cases are not
// computed here: a kernel stops before the first quad holding one and
// returns how many elements it wrote, and the Go caller sends that quad
// through math.Log / math.Hypot itself.
//
// The copy is bound to the building toolchain's math package by
// TestLogIntoMatchesMath and TestHypotIntoMatchesMath, which compare
// every lane with math.Log / math.Hypot bit for bit: a toolchain whose
// routine changed fails them rather than drifting a trace.

// Constants, four copies each so a packed op can read them from memory.
#define CONST4(name, v) DATA name<>+0(SB)/8, v; DATA name<>+8(SB)/8, v; DATA name<>+16(SB)/8, v; DATA name<>+24(SB)/8, v; GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(mathMant, $0x000FFFFFFFFFFFFF)
CONST4(mathAbs, $0x7FFFFFFFFFFFFFFF)
CONST4(mathPosInf, $0x7FF0000000000000)
CONST4(mathMagic, $0x4330000000000000) // 2^52
CONST4(mathBias, $1022.0)
CONST4(mathHalf, $0.5)
CONST4(mathOne, $1.0)
CONST4(mathTwo, $2.0)
CONST4(logHSqrt2, $7.07106781186547524401e-01) // sqrt(2)/2
CONST4(logLn2Hi, $6.93147180369123816490e-01)  // 0x3fe62e42fee00000
CONST4(logLn2Lo, $1.90821492927058770002e-10)  // 0x3dea39ef35793c76
CONST4(logL1, $6.666666666666735130e-01)       // 0x3FE5555555555593
CONST4(logL2, $3.999999999940941908e-01)       // 0x3FD999999997FA04
CONST4(logL3, $2.857142874366239149e-01)       // 0x3FD2492494229359
CONST4(logL4, $2.222219843214978396e-01)       // 0x3FCC71C51D8E78AF
CONST4(logL5, $1.818357216161805012e-01)       // 0x3FC7466496CB03DE
CONST4(logL6, $1.531383769920937332e-01)       // 0x3FC39A09D078C69F
CONST4(logL7, $1.479819860511658591e-01)       // 0x3FC2F112DF3E5244

// func logAVX2(dst, src *float64, n int) int
//
// dst[i] = math.Log(src[i]) over whole quads of the first n elements,
// stopping before the first quad with a lane outside (0, +Inf) — ±0,
// negatives, +Inf and NaN, the stdlib's special cases. Returns the
// number of elements written, a multiple of 4. Subnormals take the
// main path, as in the stdlib: its frexp is the same bit mask.
TEXT ·logAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX             // AX = elements written
	SHRQ $2, CX             // CX = whole quads
	JZ   logdone
	VMOVUPD mathMant<>(SB), Y8
	VMOVUPD mathHalf<>(SB), Y9
	VMOVUPD mathMagic<>(SB), Y10
	VMOVUPD mathOne<>(SB), Y11
	VMOVUPD logHSqrt2<>(SB), Y12
	VMOVUPD mathPosInf<>(SB), Y13
	VMOVUPD mathBias<>(SB), Y14
	VPXOR   Y15, Y15, Y15

logloop:
	VMOVUPD (SI)(AX*8), Y0  // x
	// A lane takes the main path iff 0 < bits(x) < bits(+Inf) as int64.
	VPCMPGTQ  Y15, Y0, Y1
	VPCMPGTQ  Y0, Y13, Y2
	VPAND     Y2, Y1, Y1
	VMOVMSKPD Y1, BX
	CMPQ      BX, $15
	JNE       logdone
	// f1, ki := math.Frexp(x); k := float64(ki)
	VANDPD Y8, Y0, Y2
	VORPD  Y9, Y2, Y2       // f1
	VPSRLQ $52, Y0, Y1      // the exponent field (the sign is clear)
	VPOR   Y10, Y1, Y1      // 2^52 + field, exactly
	VSUBPD Y10, Y1, Y1      // field
	VSUBPD Y14, Y1, Y1      // k = field - 0x3FE, as CVTSL2SD made it
	// if f1 < math.Sqrt2/2 { k -= 1; f1 *= 2 }: cmpnlt, HSqrt2 first
	VCMPPD $5, Y2, Y12, Y3  // 0 or ^0
	VANDPD Y11, Y3, Y3      // 0 or 1
	VSUBPD Y3, Y1, Y1       // k
	VADDPD Y11, Y3, Y3      // 1 or 2
	VMULPD Y3, Y2, Y2       // f1
	// f := f1 - 1
	VSUBPD Y11, Y2, Y2
	// s := f / (2 + f)
	VADDPD mathTwo<>(SB), Y2, Y0
	VDIVPD Y0, Y2, Y3       // s
	// s2 := s * s; s4 := s2 * s2
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD logL7<>(SB), Y5, Y6
	VADDPD logL5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4       // t1
	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VMULPD logL6<>(SB), Y5, Y6
	VADDPD logL4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5       // t2
	// R := t1 + t2
	VADDPD Y5, Y4, Y4
	// hfsq := 0.5 * f * f
	VMULPD Y9, Y2, Y0
	VMULPD Y2, Y0, Y0
	// return k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y0, Y4, Y4       // hfsq+R
	VMULPD Y4, Y3, Y3       // s*(hfsq+R)
	VMULPD logLn2Lo<>(SB), Y1, Y4
	VADDPD Y4, Y3, Y3       // s*(hfsq+R) + k*Ln2Lo
	VSUBPD Y3, Y0, Y0       // hfsq - (...)
	VSUBPD Y2, Y0, Y0       // (...) - f
	VMULPD logLn2Hi<>(SB), Y1, Y1
	VSUBPD Y0, Y1, Y1       // k*Ln2Hi - (...)
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ   $4, AX
	DECQ   CX
	JNZ    logloop

logdone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func hypotAVX2(dst, p, q *float64, n int) int
//
// dst[i] = math.Hypot(p[i], q[i]) over whole quads of the first n
// elements, stopping before the first quad with a lane whose |p| or |q|
// is +Inf or NaN, or whose p and q are both ±0 — the stdlib's special
// cases. Returns the number of elements written, a multiple of 4.
TEXT ·hypotAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ q+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX             // AX = elements written
	SHRQ $2, CX             // CX = whole quads
	JZ   hypotdone
	VMOVUPD mathAbs<>(SB), Y8
	VMOVUPD mathOne<>(SB), Y11
	VMOVUPD mathPosInf<>(SB), Y13
	VPXOR   Y15, Y15, Y15

hypotloop:
	VANDPD (SI)(AX*8), Y8, Y0 // p = |p|
	VANDPD (DX)(AX*8), Y8, Y1 // q = |q|
	// A lane takes the main path iff both are below +Inf and not
	// both zero.
	VPCMPGTQ  Y0, Y13, Y2
	VPCMPGTQ  Y1, Y13, Y3
	VPAND     Y3, Y2, Y2
	VPOR      Y1, Y0, Y3
	VPCMPEQQ  Y15, Y3, Y3
	VPANDN    Y2, Y3, Y2
	VMOVMSKPD Y2, BX
	CMPQ      BX, $15
	JNE       hypotdone
	// hypot = max * sqrt(1 + (min/max)**2)
	VMAXPD  Y1, Y0, Y2
	VMINPD  Y1, Y0, Y3
	VDIVPD  Y2, Y3, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y11, Y3, Y3
	VSQRTPD Y3, Y3
	VMULPD  Y3, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	DECQ    CX
	JNZ     hypotloop

hypotdone:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET
