// The one vector kernel: dst[j] += a*x[j] over float32 rows, AVX2 — and,
// beside it, the ReLU row and its gradient mask.
//
// Every product is a VMULPS followed by a separate VADDPS — never a fused
// multiply-add — so each lane performs exactly the two IEEE-754 roundings
// of the scalar Go statement `dst[j] += float32(a * x[j])`. Lanes run over
// j only; the order in which one output element receives its terms is the
// caller's loop order, untouched. Results are therefore bitwise-equal to
// the generic loops in kernel.go (NaN payloads aside).

#include "textflag.h"

// tailMask<> + 4*(8-r) is a VMASKMOVPS mask selecting the first r lanes.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports AVX, AVX2 and OSXSAVE, and XCR0 says
// the OS saves XMM and YMM state across context switches.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) | AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: SSE (bit 1) | AVX (bit 2) state enabled
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX // AVX2 (leaf 7 EBX bit 5)
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func axpyAVX2(dst []float32, a float32, x []float32)
//
// dst[j] += a*x[j] for j < len(x). The caller guarantees len(dst) >= len(x).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+32(FP), SI
	MOVQ x_len+40(FP), CX
	VBROADCASTSS a+24(FP), Y8

	CMPQ CX, $32
	JLT  axpy8
	PCALIGN $32
axpy32loop:
	VMULPS  0(SI), Y8, Y0
	VMULPS  32(SI), Y8, Y1
	VMULPS  64(SI), Y8, Y2
	VMULPS  96(SI), Y8, Y3
	VADDPS  0(DI), Y0, Y0
	VADDPS  32(DI), Y1, Y1
	VADDPS  64(DI), Y2, Y2
	VADDPS  96(DI), Y3, Y3
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JGE     axpy32loop

axpy8:
	CMPQ CX, $8
	JLT  axpytail
axpy8loop:
	VMULPS  0(SI), Y8, Y0
	VADDPS  0(DI), Y0, Y0
	VMOVUPS Y0, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     axpy8loop

axpytail:
	TESTQ CX, CX
	JZ    axpydone
	LEAQ  tailMask<>+32(SB), AX
	SHLQ  $2, CX
	SUBQ  CX, AX
	VMOVDQU    (AX), Y9
	VMASKMOVPS (SI), Y9, Y0
	VMASKMOVPS (DI), Y9, Y1
	VMULPS     Y0, Y8, Y0
	VADDPS     Y1, Y0, Y0
	VMASKMOVPS Y0, Y9, (DI)

axpydone:
	VZEROUPPER
	RET

// func reluAVX2(dst, x []float32)
//
// dst[j] = max(x[j], 0) for j < len(x). VMAXPS returns its second source
// when the first is not greater — and when either is NaN or both are
// zeros — so with x first and +0 second, NaN and -0 both give +0, as the
// scalar `if v > 0 { v } else { 0 }` does. The caller guarantees
// len(dst) >= len(x).
TEXT ·reluAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	VXORPS Y8, Y8, Y8

	CMPQ CX, $32
	JLT  relu8
	PCALIGN $32
relu32loop:
	VMOVUPS 0(SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMAXPS  Y8, Y0, Y0
	VMAXPS  Y8, Y1, Y1
	VMAXPS  Y8, Y2, Y2
	VMAXPS  Y8, Y3, Y3
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JGE     relu32loop

relu8:
	CMPQ CX, $8
	JLT  relutail
relu8loop:
	VMOVUPS 0(SI), Y0
	VMAXPS  Y8, Y0, Y0
	VMOVUPS Y0, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     relu8loop

relutail:
	TESTQ CX, CX
	JZ    reludone
	LEAQ  tailMask<>+32(SB), AX
	SHLQ  $2, CX
	SUBQ  CX, AX
	VMOVDQU    (AX), Y9
	VMASKMOVPS (SI), Y9, Y0
	VMAXPS     Y8, Y0, Y0
	VMASKMOVPS Y0, Y9, (DI)

reludone:
	VZEROUPPER
	RET

// func reluGradAVX2(dst, grad, a []float32)
//
// dst[j] = grad[j] where a[j] > 0, else +0, for j < len(a): the ordered
// compare 0 < a[j] (false for NaN and ±0) is an all-ones or all-zeros lane
// mask, ANDed onto grad's bits. The caller guarantees len(dst) >= len(a)
// and len(grad) >= len(a).
TEXT ·reluGradAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ grad_base+24(FP), DX
	MOVQ a_base+48(FP), SI
	MOVQ a_len+56(FP), CX
	VXORPS Y8, Y8, Y8

	CMPQ CX, $8
	JLT  gradtail
	PCALIGN $32
grad8loop:
	VCMPPS  $0x11, 0(SI), Y8, Y0 // LT_OQ: 0 < a
	VANDPS  0(DX), Y0, Y0
	VMOVUPS Y0, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     grad8loop

gradtail:
	TESTQ CX, CX
	JZ    graddone
	LEAQ  tailMask<>+32(SB), AX
	SHLQ  $2, CX
	SUBQ  CX, AX
	VMOVDQU    (AX), Y9
	VMASKMOVPS (SI), Y9, Y1
	VMASKMOVPS (DX), Y9, Y2
	VCMPPS     $0x11, Y1, Y8, Y0
	VANDPS     Y2, Y0, Y0
	VMASKMOVPS Y0, Y9, (DI)

graddone:
	VZEROUPPER
	RET

// Register use in mulAddRowAVX2:
//   DI  &ci[j0]        current column tile of the output row
//   DX  &b[p0*n + j0]  top of the same column tile of B
//   SI  &ai[p0]
//   R9  p1-p0          k steps
//   R10 4*n            B row stride in bytes
//   R13 skipZero
//   CX  columns left
//   BX  B cursor, AX k index inside a tile
//   Y0..Y7 the C tile, Y8 broadcast a, Y9..Y12 products, Y13 tail mask

#define LOAD1 VMOVUPS 0(DI), Y0
#define LOAD2 LOAD1; VMOVUPS 32(DI), Y1
#define LOAD4 LOAD2; VMOVUPS 64(DI), Y2; VMOVUPS 96(DI), Y3
#define LOAD8 LOAD4; VMOVUPS 128(DI), Y4; VMOVUPS 160(DI), Y5; VMOVUPS 192(DI), Y6; VMOVUPS 224(DI), Y7

#define STORE1 VMOVUPS Y0, 0(DI)
#define STORE2 STORE1; VMOVUPS Y1, 32(DI)
#define STORE4 STORE2; VMOVUPS Y2, 64(DI); VMOVUPS Y3, 96(DI)
#define STORE8 STORE4; VMOVUPS Y4, 128(DI); VMOVUPS Y5, 160(DI); VMOVUPS Y6, 192(DI); VMOVUPS Y7, 224(DI)

#define STEP1 VMULPS 0(BX), Y8, Y9; VADDPS Y9, Y0, Y0
#define STEP2 STEP1; VMULPS 32(BX), Y8, Y10; VADDPS Y10, Y1, Y1
#define STEP4 STEP2; VMULPS 64(BX), Y8, Y11; VADDPS Y11, Y2, Y2; VMULPS 96(BX), Y8, Y12; VADDPS Y12, Y3, Y3
#define STEP8 STEP4; VMULPS 128(BX), Y8, Y9; VADDPS Y9, Y4, Y4; VMULPS 160(BX), Y8, Y10; VADDPS Y10, Y5, Y5; VMULPS 192(BX), Y8, Y11; VADDPS Y11, Y6, Y6; VMULPS 224(BX), Y8, Y12; VADDPS Y12, Y7, Y7

#define STEPTAIL VMASKMOVPS (BX), Y13, Y9; VMULPS Y9, Y8, Y9; VADDPS Y9, Y0, Y0

// KLOOP runs the k loop for the tile whose accumulators are loaded: for
// each p, broadcast ai[p] and apply STEP to the B row at BX. ai[p] == ±0
// (bits<<1 == 0) skips the row when skipZero is set. The loop head is
// 32-byte aligned so its throughput does not depend on what the linker
// placed ahead of this function.
#define KLOOP(STEP, loop, mul, next) \
	MOVQ DX, BX; \
	XORQ AX, AX; \
	PCALIGN $32; \
loop: \
	MOVL (SI)(AX*4), R11; \
	ADDL R11, R11; \
	JNZ  mul; \
	TESTL R13, R13; \
	JNZ  next; \
mul: \
	VBROADCASTSS (SI)(AX*4), Y8; \
	STEP; \
next: \
	ADDQ R10, BX; \
	INCQ AX; \
	CMPQ AX, R9; \
	JLT  loop

// func mulAddRowAVX2(ci, ai, b []float32, p0, p1, n int, skipZero bool)
//
// ci[j] += ai[p]*b[p*n+j] for p in [p0,p1), j in [0,n), p ascending per j.
// The C tile stays in registers across the whole k loop. The caller
// guarantees len(ci) >= n, len(ai) >= p1, len(b) >= p1*n, 0 <= p0.
TEXT ·mulAddRowAVX2(SB), NOSPLIT, $0-97
	MOVQ ci_base+0(FP), DI
	MOVQ ai_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ p0+72(FP), R8
	MOVQ p1+80(FP), R9
	MOVQ n+88(FP), CX
	MOVBLZX skipZero+96(FP), R13
	SUBQ R8, R9
	JLE  rowdone
	MOVQ CX, R10
	SHLQ $2, R10
	MOVQ R8, AX
	IMULQ R10, AX
	ADDQ AX, DX
	LEAQ (SI)(R8*4), SI

tile64:
	CMPQ CX, $64
	JLT  tile32
	LOAD8
	KLOOP(STEP8, loop64, mul64, next64)
	STORE8
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $64, CX
	JMP  tile64

tile32:
	CMPQ CX, $32
	JLT  tile16
	LOAD4
	KLOOP(STEP4, loop32, mul32, next32)
	STORE4
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, CX

tile16:
	CMPQ CX, $16
	JLT  tile8
	LOAD2
	KLOOP(STEP2, loop16, mul16, next16)
	STORE2
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $16, CX

tile8:
	CMPQ CX, $8
	JLT  tiletail
	LOAD1
	KLOOP(STEP1, loop8, mul8, next8)
	STORE1
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, CX

tiletail:
	TESTQ CX, CX
	JZ    rowdone
	LEAQ  tailMask<>+32(SB), AX
	SHLQ  $2, CX
	SUBQ  CX, AX
	VMOVDQU    (AX), Y13
	VMASKMOVPS (DI), Y13, Y0
	KLOOP(STEPTAIL, looptail, multail, nexttail)
	VMASKMOVPS Y0, Y13, (DI)

rowdone:
	VZEROUPPER
	RET

// mulAddRowStridedAVX2 is mulAddRowAVX2 with the row's A elements lda
// apart: a weight gradient reads a column of the activation matrix in
// place instead of a transposed copy. Registers as above, except
//   SI  &ai[p0*lda]    top of the A column
//   R8  4*lda          A stride in bytes
//   R12 A cursor, AX   k steps left inside a tile

// KLOOPS is KLOOP walking A at a stride: R12 restarts at SI for every
// tile and moves R8 bytes per k step, the B cursor R10.
#define KLOOPS(STEP, loop, mul, next) \
	MOVQ DX, BX; \
	MOVQ SI, R12; \
	MOVQ R9, AX; \
	PCALIGN $32; \
loop: \
	MOVL (R12), R11; \
	ADDL R11, R11; \
	JNZ  mul; \
	TESTL R13, R13; \
	JNZ  next; \
mul: \
	VBROADCASTSS (R12), Y8; \
	STEP; \
next: \
	ADDQ R10, BX; \
	ADDQ R8, R12; \
	DECQ AX; \
	JNZ  loop

// func mulAddRowStridedAVX2(ci, ai []float32, lda int, b []float32, p0, p1, n int, skipZero bool)
//
// ci[j] += ai[p*lda]*b[p*n+j] for p in [p0,p1), j in [0,n), p ascending
// per j. The caller guarantees len(ci) >= n, len(ai) > (p1-1)*lda,
// len(b) >= p1*n, 0 <= p0, 1 <= lda.
TEXT ·mulAddRowStridedAVX2(SB), NOSPLIT, $0-105
	MOVQ ci_base+0(FP), DI
	MOVQ ai_base+24(FP), SI
	MOVQ lda+48(FP), R8
	MOVQ b_base+56(FP), DX
	MOVQ p0+80(FP), AX
	MOVQ p1+88(FP), R9
	MOVQ n+96(FP), CX
	MOVBLZX skipZero+104(FP), R13
	SUBQ AX, R9
	JLE  srowdone
	MOVQ CX, R10
	SHLQ $2, R10
	SHLQ $2, R8
	MOVQ AX, R11
	IMULQ R10, R11
	ADDQ R11, DX
	IMULQ R8, AX
	ADDQ AX, SI

stile64:
	CMPQ CX, $64
	JLT  stile32
	LOAD8
	KLOOPS(STEP8, sloop64, smul64, snext64)
	STORE8
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $64, CX
	JMP  stile64

stile32:
	CMPQ CX, $32
	JLT  stile16
	LOAD4
	KLOOPS(STEP4, sloop32, smul32, snext32)
	STORE4
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, CX

stile16:
	CMPQ CX, $16
	JLT  stile8
	LOAD2
	KLOOPS(STEP2, sloop16, smul16, snext16)
	STORE2
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $16, CX

stile8:
	CMPQ CX, $8
	JLT  stiletail
	LOAD1
	KLOOPS(STEP1, sloop8, smul8, snext8)
	STORE1
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, CX

stiletail:
	TESTQ CX, CX
	JZ    srowdone
	LEAQ  tailMask<>+32(SB), AX
	SHLQ  $2, CX
	SUBQ  CX, AX
	VMOVDQU    (AX), Y13
	VMASKMOVPS (DI), Y13, Y0
	KLOOPS(STEPTAIL, slooptail, smultail, snexttail)
	VMASKMOVPS Y0, Y13, (DI)

srowdone:
	VZEROUPPER
	RET
