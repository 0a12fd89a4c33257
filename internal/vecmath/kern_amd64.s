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

// func adamNoBC1AVX2(c *AdamCoeffs, w, grad, m, v *float64, n int)
//
// adamAVX2 for a step whose BC1 is exactly 1: the update is the same
// with the VDIVPD by BC1 left out, which changes no bit — m/1 is m for
// every m, and one divider-bound op in four is gone.
TEXT ·adamNoBC1AVX2(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), AX
	MOVQ w+8(FP), DI
	MOVQ grad+16(FP), SI
	MOVQ m+24(FP), R8
	MOVQ v+32(FP), R9
	MOVQ n+40(FP), CX
	SHRQ $2, CX             // CX = n / 4
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 56(AX), Y15

adamnobc1loop:
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
	VMULPD  Y1, Y12, Y1     // LR*m
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
	JNZ     adamnobc1loop

	VZEROUPPER
	RET

// func rowSweepAVX2(dst *float64, n int, coef *float64, cs int, b *float64, bs int, k int)
//
// dst[0:n] += Σ_kk coef[kk*cs] * b[kk*bs : kk*bs+n] for kk ascending in
// [0, k), skipping every kk whose coefficient is ±0; n >= 4, k >= 1.
//
// Determinism contract: this is the sweep of AXPYs over the same
// coefficients with the destination row held in registers instead of
// memory. Each lane takes one VMULPD and then one VADDPD per kept kk,
// the product as the first addend as in axpyAVX2, so every element is
// bit-identical to the AXPY sweep. No FMA.
//
// Layout: while more than 52 columns remain the row runs in blocks of
// 48 columns, twelve YMM accumulators Y0-Y11; the last block takes the
// 4 to 52 columns left in ceil(cols/4) lanes, up to Y12. A block's
// last lane is addressed through R13 at byte offset 8*(cols-4), so a
// width that is not a multiple of 4 ends in a lane that overlaps the
// one before it: the overlapped columns take the same operations in
// the same order in both lanes and hold the same bits when both are
// stored. Each block loads its lanes from dst, sweeps every kk with
// the coefficient broadcast into Y13 and the product in Y14, and
// stores its lanes once. Registers per block: DI the block's dst, R10
// its first b column, SI the current b row, R8 the coefficient, BX the
// kk count down, CX the columns left from DI.

// One lane at a fixed byte offset: load, multiply-add, store.
#define LD(off, acc) VMOVUPD off(DI), acc
#define MAC(off, acc) VMULPD off(SI), Y13, Y14; VADDPD acc, Y14, acc
#define ST(off, acc) VMOVUPD acc, off(DI)

// The R13-addressed last lane of a block.
#define LDL(acc) VMOVUPD (DI)(R13*1), acc
#define MACL(acc) VMULPD (SI)(R13*1), Y13, Y14; VADDPD acc, Y14, acc
#define STL(acc) VMOVUPD acc, (DI)(R13*1)

// LDn, MACn and STn apply their op to the first n fixed lanes.
#define LD1 LD(0, Y0)
#define LD2 LD1; LD(32, Y1)
#define LD3 LD2; LD(64, Y2)
#define LD4 LD3; LD(96, Y3)
#define LD5 LD4; LD(128, Y4)
#define LD6 LD5; LD(160, Y5)
#define LD7 LD6; LD(192, Y6)
#define LD8 LD7; LD(224, Y7)
#define LD9 LD8; LD(256, Y8)
#define LD10 LD9; LD(288, Y9)
#define LD11 LD10; LD(320, Y10)
#define LD12 LD11; LD(352, Y11)
#define MAC1 MAC(0, Y0)
#define MAC2 MAC1; MAC(32, Y1)
#define MAC3 MAC2; MAC(64, Y2)
#define MAC4 MAC3; MAC(96, Y3)
#define MAC5 MAC4; MAC(128, Y4)
#define MAC6 MAC5; MAC(160, Y5)
#define MAC7 MAC6; MAC(192, Y6)
#define MAC8 MAC7; MAC(224, Y7)
#define MAC9 MAC8; MAC(256, Y8)
#define MAC10 MAC9; MAC(288, Y9)
#define MAC11 MAC10; MAC(320, Y10)
#define MAC12 MAC11; MAC(352, Y11)
#define ST1 ST(0, Y0)
#define ST2 ST1; ST(32, Y1)
#define ST3 ST2; ST(64, Y2)
#define ST4 ST3; ST(96, Y3)
#define ST5 ST4; ST(128, Y4)
#define ST6 ST5; ST(160, Y5)
#define ST7 ST6; ST(192, Y6)
#define ST8 ST7; ST(224, Y7)
#define ST9 ST8; ST(256, Y8)
#define ST10 ST9; ST(288, Y9)
#define ST11 ST10; ST(320, Y10)
#define ST12 ST11; ST(352, Y11)

TEXT ·rowSweepAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ cs+24(FP), R9
	SHLQ $3, R9             // coefficient stride in bytes
	MOVQ b+32(FP), R10
	MOVQ bs+40(FP), R11
	SHLQ $3, R11            // b row stride in bytes

block:
	MOVQ coef+16(FP), R8
	MOVQ R10, SI
	MOVQ k+48(FP), BX
	CMPQ CX, $52
	JLE  lastblock
	MOVQ $352, R13          // a full block: lanes at 0, 32, ..., 352
	JMP  sweep12

lastblock:
	MOVQ CX, R13
	SHLQ $3, R13
	SUBQ $32, R13           // the last lane ends at column CX
	LEAQ 3(CX), AX
	SHRQ $2, AX             // lanes = ceil(CX/4), 1 to 13
	CMPQ AX, $1
	JEQ  sweep1
	CMPQ AX, $2
	JEQ  sweep2
	CMPQ AX, $3
	JEQ  sweep3
	CMPQ AX, $4
	JEQ  sweep4
	CMPQ AX, $5
	JEQ  sweep5
	CMPQ AX, $6
	JEQ  sweep6
	CMPQ AX, $7
	JEQ  sweep7
	CMPQ AX, $8
	JEQ  sweep8
	CMPQ AX, $9
	JEQ  sweep9
	CMPQ AX, $10
	JEQ  sweep10
	CMPQ AX, $11
	JEQ  sweep11
	CMPQ AX, $12
	JEQ  sweep12
	CMPQ AX, $13
	JEQ  sweep13

sweep1:
	LDL(Y0)
loop1:
	MOVQ (R8), AX
	ADDQ AX, AX             // zero exactly when the coefficient is ±0
	JZ   skip1
	VBROADCASTSD (R8), Y13
	MACL(Y0)
skip1:
	ADDQ R9, R8
	ADDQ R11, SI
	DECQ BX
	JNZ  loop1
	STL(Y0)
	JMP  next

sweep2:
	LD1; LDL(Y1)
loop2:
	MOVQ (R8), AX
	ADDQ AX, AX             // zero exactly when the coefficient is ±0
	JZ   skip2
	VBROADCASTSD (R8), Y13
	MAC1; MACL(Y1)
skip2:
	ADDQ R9, R8
	ADDQ R11, SI
	DECQ BX
	JNZ  loop2
	ST1; STL(Y1)
	JMP  next

sweep3:
	LD2; LDL(Y2)
loop3:
	MOVQ (R8), AX
	ADDQ AX, AX             // zero exactly when the coefficient is ±0
	JZ   skip3
	VBROADCASTSD (R8), Y13
	MAC2; MACL(Y2)
skip3:
	ADDQ R9, R8
	ADDQ R11, SI
	DECQ BX
	JNZ  loop3
	ST2; STL(Y2)
	JMP  next

sweep4:
	LD3; LDL(Y3)
loop4:
	MOVQ (R8), AX
	ADDQ AX, AX             // zero exactly when the coefficient is ±0
	JZ   skip4
	VBROADCASTSD (R8), Y13
	MAC3; MACL(Y3)
skip4:
	ADDQ R9, R8
	ADDQ R11, SI
	DECQ BX
	JNZ  loop4
	ST3; STL(Y3)
	JMP  next

sweep5:
	LD4; LDL(Y4)
loop5:
	MOVQ (R8), AX
	ADDQ AX, AX             // zero exactly when the coefficient is ±0
	JZ   skip5
	VBROADCASTSD (R8), Y13
	MAC4; MACL(Y4)
skip5:
	ADDQ R9, R8
	ADDQ R11, SI
	DECQ BX
	JNZ  loop5
	ST4; STL(Y4)
	JMP  next

sweep6:
	LD5; LDL(Y5)
loop6:
	MOVQ (R8), AX
	ADDQ AX, AX             // zero exactly when the coefficient is ±0
	JZ   skip6
	VBROADCASTSD (R8), Y13
	MAC5; MACL(Y5)
skip6:
	ADDQ R9, R8
	ADDQ R11, SI
	DECQ BX
	JNZ  loop6
	ST5; STL(Y5)
	JMP  next

sweep7:
	LD6; LDL(Y6)
loop7:
	MOVQ (R8), AX
	ADDQ AX, AX             // zero exactly when the coefficient is ±0
	JZ   skip7
	VBROADCASTSD (R8), Y13
	MAC6; MACL(Y6)
skip7:
	ADDQ R9, R8
	ADDQ R11, SI
	DECQ BX
	JNZ  loop7
	ST6; STL(Y6)
	JMP  next

sweep8:
	LD7; LDL(Y7)
loop8:
	MOVQ (R8), AX
	ADDQ AX, AX             // zero exactly when the coefficient is ±0
	JZ   skip8
	VBROADCASTSD (R8), Y13
	MAC7; MACL(Y7)
skip8:
	ADDQ R9, R8
	ADDQ R11, SI
	DECQ BX
	JNZ  loop8
	ST7; STL(Y7)
	JMP  next

sweep9:
	LD8; LDL(Y8)
loop9:
	MOVQ (R8), AX
	ADDQ AX, AX             // zero exactly when the coefficient is ±0
	JZ   skip9
	VBROADCASTSD (R8), Y13
	MAC8; MACL(Y8)
skip9:
	ADDQ R9, R8
	ADDQ R11, SI
	DECQ BX
	JNZ  loop9
	ST8; STL(Y8)
	JMP  next

sweep10:
	LD9; LDL(Y9)
loop10:
	MOVQ (R8), AX
	ADDQ AX, AX             // zero exactly when the coefficient is ±0
	JZ   skip10
	VBROADCASTSD (R8), Y13
	MAC9; MACL(Y9)
skip10:
	ADDQ R9, R8
	ADDQ R11, SI
	DECQ BX
	JNZ  loop10
	ST9; STL(Y9)
	JMP  next

sweep11:
	LD10; LDL(Y10)
loop11:
	MOVQ (R8), AX
	ADDQ AX, AX             // zero exactly when the coefficient is ±0
	JZ   skip11
	VBROADCASTSD (R8), Y13
	MAC10; MACL(Y10)
skip11:
	ADDQ R9, R8
	ADDQ R11, SI
	DECQ BX
	JNZ  loop11
	ST10; STL(Y10)
	JMP  next

sweep12:
	LD11; LDL(Y11)
loop12:
	MOVQ (R8), AX
	ADDQ AX, AX             // zero exactly when the coefficient is ±0
	JZ   skip12
	VBROADCASTSD (R8), Y13
	MAC11; MACL(Y11)
skip12:
	ADDQ R9, R8
	ADDQ R11, SI
	DECQ BX
	JNZ  loop12
	ST11; STL(Y11)
	JMP  next

sweep13:
	LD12; LDL(Y12)
loop13:
	MOVQ (R8), AX
	ADDQ AX, AX             // zero exactly when the coefficient is ±0
	JZ   skip13
	VBROADCASTSD (R8), Y13
	MAC12; MACL(Y12)
skip13:
	ADDQ R9, R8
	ADDQ R11, SI
	DECQ BX
	JNZ  loop13
	ST12; STL(Y12)

next:
	CMPQ CX, $52
	JLE  done
	ADDQ $384, DI
	ADDQ $384, R10
	SUBQ $48, CX
	JMP  block

done:
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

// func distSums8AVX2(sums *[8]float64, block, staged *float64, dim int, members *int, m int)
//
// For each member row j (members[0..m), in order): the Euclidean
// distance from each of the eight rows of block to row j of staged,
// added to that row's lane of sums. block holds two quads, each dim
// groups of four lanes; row j's coordinates sit at stride 32 bytes from
// staged + (j>>2)·32·dim + (j&3)·8.
//
// Determinism contract: each lane is SqDistUnchecked's chain — per
// dimension, ascending, one VSUBPD (row minus member), one VMULPD and
// one VADDPD, each rounding once; the first dimension's square starts
// the chain, which equals 0 + d·d bit for bit since a square is never
// -0 — then one VSQRTPD and one VADDPD into the lane's running sum, in
// member order. No FMA, and no sum is split or reassociated, so every
// lane is bit-identical to the scalar loop.
//
// Layout: the two quads share each broadcast of a member's coordinate,
// and the main loop takes two members per pass, so four independent
// distance chains hide the add latency; their roots are added to the
// sums first member first. An odd last member takes a one-member pass.
// Loads are unaligned.
TEXT ·distSums8AVX2(SB), NOSPLIT, $0-48
	MOVQ sums+0(FP), DI
	MOVQ block+8(FP), SI
	MOVQ staged+16(FP), DX
	MOVQ dim+24(FP), CX
	MOVQ members+32(FP), R8
	MOVQ m+40(FP), R9
	VMOVUPD (DI), Y6        // lanes of quad A
	VMOVUPD 32(DI), Y7      // lanes of quad B; DI is free until the store
	MOVQ CX, R10
	SHLQ $5, R10            // R10 = 32·dim, the bytes of one quad
	LEAQ (SI)(R10*1), R11   // quad B
	MOVQ R9, R13
	SHRQ $1, R13            // member pairs
	JZ   distone

distpair:
	MOVQ (R8), AX           // first member j
	MOVQ AX, BX
	SHRQ $2, AX
	IMULQ R10, AX           // (j>>2)·32·dim
	ANDQ $3, BX
	ADDQ DX, AX
	LEAQ (AX)(BX*8), AX     // row j, coordinate 0
	MOVQ 8(R8), DI         // second member
	MOVQ DI, BX
	SHRQ $2, DI
	IMULQ R10, DI
	ANDQ $3, BX
	ADDQ DX, DI
	LEAQ (DI)(BX*8), DI
	VMOVUPD (SI), Y1
	VMOVUPD (R11), Y2
	VBROADCASTSD (AX), Y0
	VBROADCASTSD (DI), Y5
	VSUBPD  Y0, Y1, Y8      // x - y
	VSUBPD  Y0, Y2, Y9
	VSUBPD  Y5, Y1, Y10
	VSUBPD  Y5, Y2, Y11
	VMULPD  Y8, Y8, Y3      // chains start at the first square
	VMULPD  Y9, Y9, Y4
	VMULPD  Y10, Y10, Y12
	VMULPD  Y11, Y11, Y13
	MOVQ $32, BX            // byte offset of coordinate 1
	MOVQ CX, R12
	DECQ R12
	JZ   distpairroot

distpairdim:
	VMOVUPD (SI)(BX*1), Y1
	VMOVUPD (R11)(BX*1), Y2
	VBROADCASTSD (AX)(BX*1), Y0
	VBROADCASTSD (DI)(BX*1), Y5
	VSUBPD  Y0, Y1, Y8
	VSUBPD  Y0, Y2, Y9
	VSUBPD  Y5, Y1, Y10
	VSUBPD  Y5, Y2, Y11
	VMULPD  Y8, Y8, Y8
	VMULPD  Y9, Y9, Y9
	VMULPD  Y10, Y10, Y10
	VMULPD  Y11, Y11, Y11
	VADDPD  Y8, Y3, Y3
	VADDPD  Y9, Y4, Y4
	VADDPD  Y10, Y12, Y12
	VADDPD  Y11, Y13, Y13
	ADDQ $32, BX
	DECQ R12
	JNZ  distpairdim

distpairroot:
	VSQRTPD Y3, Y3
	VSQRTPD Y4, Y4
	VSQRTPD Y12, Y12
	VSQRTPD Y13, Y13
	VADDPD  Y3, Y6, Y6      // first member, then second
	VADDPD  Y4, Y7, Y7
	VADDPD  Y12, Y6, Y6
	VADDPD  Y13, Y7, Y7
	ADDQ $16, R8
	DECQ R13
	JNZ  distpair

distone:
	ANDQ $1, R9
	JZ   diststore
	MOVQ (R8), AX
	MOVQ AX, BX
	SHRQ $2, AX
	IMULQ R10, AX
	ANDQ $3, BX
	ADDQ DX, AX
	LEAQ (AX)(BX*8), AX
	VBROADCASTSD (AX), Y0
	VMOVUPD (SI), Y1
	VMOVUPD (R11), Y2
	VSUBPD  Y0, Y1, Y1
	VSUBPD  Y0, Y2, Y2
	VMULPD  Y1, Y1, Y3
	VMULPD  Y2, Y2, Y4
	MOVQ $32, BX
	MOVQ CX, R12
	DECQ R12
	JZ   distoneroot

distonedim:
	VBROADCASTSD (AX)(BX*1), Y0
	VMOVUPD (SI)(BX*1), Y1
	VMOVUPD (R11)(BX*1), Y2
	VSUBPD  Y0, Y1, Y1
	VSUBPD  Y0, Y2, Y2
	VMULPD  Y1, Y1, Y1
	VMULPD  Y2, Y2, Y2
	VADDPD  Y1, Y3, Y3
	VADDPD  Y2, Y4, Y4
	ADDQ $32, BX
	DECQ R12
	JNZ  distonedim

distoneroot:
	VSQRTPD Y3, Y3
	VSQRTPD Y4, Y4
	VADDPD  Y3, Y6, Y6
	VADDPD  Y4, Y7, Y7

diststore:
	MOVQ sums+0(FP), DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET
