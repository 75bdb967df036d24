// The one vector kernel: dst[j] += a*x[j] over float32 rows, AVX2 and
// AVX-512 — and, beside it, the ReLU row and its gradient mask.
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

// skipRows<> is two B rows of 64 float32, as wide as the widest tile: -0.0
// then +0.0. A skipped k step reads the one whose sign is opposite to its
// ±0 A element (see PICK).
DATA skipRows<>+0(SB)/8, $0x8000000080000000
DATA skipRows<>+8(SB)/8, $0x8000000080000000
DATA skipRows<>+16(SB)/8, $0x8000000080000000
DATA skipRows<>+24(SB)/8, $0x8000000080000000
DATA skipRows<>+32(SB)/8, $0x8000000080000000
DATA skipRows<>+40(SB)/8, $0x8000000080000000
DATA skipRows<>+48(SB)/8, $0x8000000080000000
DATA skipRows<>+56(SB)/8, $0x8000000080000000
DATA skipRows<>+64(SB)/8, $0x8000000080000000
DATA skipRows<>+72(SB)/8, $0x8000000080000000
DATA skipRows<>+80(SB)/8, $0x8000000080000000
DATA skipRows<>+88(SB)/8, $0x8000000080000000
DATA skipRows<>+96(SB)/8, $0x8000000080000000
DATA skipRows<>+104(SB)/8, $0x8000000080000000
DATA skipRows<>+112(SB)/8, $0x8000000080000000
DATA skipRows<>+120(SB)/8, $0x8000000080000000
DATA skipRows<>+128(SB)/8, $0x8000000080000000
DATA skipRows<>+136(SB)/8, $0x8000000080000000
DATA skipRows<>+144(SB)/8, $0x8000000080000000
DATA skipRows<>+152(SB)/8, $0x8000000080000000
DATA skipRows<>+160(SB)/8, $0x8000000080000000
DATA skipRows<>+168(SB)/8, $0x8000000080000000
DATA skipRows<>+176(SB)/8, $0x8000000080000000
DATA skipRows<>+184(SB)/8, $0x8000000080000000
DATA skipRows<>+192(SB)/8, $0x8000000080000000
DATA skipRows<>+200(SB)/8, $0x8000000080000000
DATA skipRows<>+208(SB)/8, $0x8000000080000000
DATA skipRows<>+216(SB)/8, $0x8000000080000000
DATA skipRows<>+224(SB)/8, $0x8000000080000000
DATA skipRows<>+232(SB)/8, $0x8000000080000000
DATA skipRows<>+240(SB)/8, $0x8000000080000000
DATA skipRows<>+248(SB)/8, $0x8000000080000000
DATA skipRows<>+256(SB)/8, $0
DATA skipRows<>+264(SB)/8, $0
DATA skipRows<>+272(SB)/8, $0
DATA skipRows<>+280(SB)/8, $0
DATA skipRows<>+288(SB)/8, $0
DATA skipRows<>+296(SB)/8, $0
DATA skipRows<>+304(SB)/8, $0
DATA skipRows<>+312(SB)/8, $0
DATA skipRows<>+320(SB)/8, $0
DATA skipRows<>+328(SB)/8, $0
DATA skipRows<>+336(SB)/8, $0
DATA skipRows<>+344(SB)/8, $0
DATA skipRows<>+352(SB)/8, $0
DATA skipRows<>+360(SB)/8, $0
DATA skipRows<>+368(SB)/8, $0
DATA skipRows<>+376(SB)/8, $0
DATA skipRows<>+384(SB)/8, $0
DATA skipRows<>+392(SB)/8, $0
DATA skipRows<>+400(SB)/8, $0
DATA skipRows<>+408(SB)/8, $0
DATA skipRows<>+416(SB)/8, $0
DATA skipRows<>+424(SB)/8, $0
DATA skipRows<>+432(SB)/8, $0
DATA skipRows<>+440(SB)/8, $0
DATA skipRows<>+448(SB)/8, $0
DATA skipRows<>+456(SB)/8, $0
DATA skipRows<>+464(SB)/8, $0
DATA skipRows<>+472(SB)/8, $0
DATA skipRows<>+480(SB)/8, $0
DATA skipRows<>+488(SB)/8, $0
DATA skipRows<>+496(SB)/8, $0
DATA skipRows<>+504(SB)/8, $0
GLOBL skipRows<>(SB), RODATA|NOPTR, $512

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

// func cpuHasAVX512() bool
//
// AVX-512 is usable when CPUID reports OSXSAVE and AVX512F, and XCR0 says
// the OS saves XMM, YMM, the opmask registers, the upper halves of
// ZMM0-15 and ZMM16-31 across context switches.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	TESTL $0x08000000, CX // OSXSAVE (bit 27)
	JZ    no
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX // XCR0: SSE (1) | AVX (2) | opmask (5) | ZMM_Hi256 (6) | Hi16_ZMM (7)
	CMPL AX, $0xe6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x10000, BX // AVX512F (leaf 7 EBX bit 16)
	JZ    no
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
yret:
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

// The AVX-512 row kernel, one for every stride: a row of a row-major A is
// stride 1. Registers:
//   DI  &ci[j0]        current column tile of the output row
//   DX  &b[p0*n + j0]  top of the same column tile of B
//   SI  &ai[p0*lda]    top of the A column
//   R8  4*lda          A stride in bytes
//   R9  &ai[p1*lda]    A end
//   R10 4*n            B row stride in bytes
//   R12 A cursor, AX B cursor inside a tile
//   R13 1 when skipZero is false, else 0
//   R14 &skipRows<>
//   CX  columns left
//   R11, BX PICK's scratch; BX then the B row one k step reads
//   Z0..Z3 the C tile, Z8 broadcast a, Z9..Z12 products, K1 remainder mask

// PICK points BX, with no branch on the data, at the B row one k step
// multiplies the A element at a by: the row at cur or — when skipZero
// holds and the element is ±0 — the skip row of the opposite sign,
// skipRows<> + 256 for -0 (bits>>23 = 256) and skipRows<> for +0. The
// product is then -0 in every lane, and c + (-0) = c for every c, -0, ±Inf
// and NaN included, so the step leaves C exactly as skipping it did.
// 2·bits + R13 is zero only for ±0 with skipZero set. The A element is
// broadcast from memory, not moved out of R11: a GPR-to-vector move must
// be VEX-encoded here, as every vector instruction in this file is, since
// a legacy SSE move with dirty upper YMM/ZMM state stalls on the state
// transition, and the load keeps the shuffle port free for the adds.
#define PICK(a, cur) \
	MOVL    a, R11; \
	LEAL    (R13)(R11*2), BX; \
	SHRL    $23, R11; \
	ADDQ    R14, R11; \
	TESTL   BX, BX; \
	MOVQ    cur, BX; \
	CMOVQEQ R11, BX

// ZKLOOP runs the k loop for the tile whose accumulators are loaded: for
// each p, PICK, broadcast ai[p*lda] into Z8 and apply STEP to the row at
// BX. The only branch is the loop's own; the loop head is 32-byte aligned.
#define ZKLOOP(STEP, loop) \
	MOVQ DX, AX; \
	MOVQ SI, R12; \
	PCALIGN $32; \
loop: \
	PICK((R12), AX); \
	VBROADCASTSS (R12), Z8; \
	STEP; \
	ADDQ R10, AX; \
	ADDQ R8, R12; \
	CMPQ R12, R9; \
	JNE  loop

// The AVX-512 tiles: Z0..Z3 hold 64 columns of C. A remainder of r < 64
// columns runs in one k pass over ⌈r/16⌉ accumulators, the last of them
// under the lane mask K1: its loads of C and B are zero-masked (lanes
// past the row are never read, so never fault) and its store of C is
// masked. REMn has n-1 full accumulators and the masked one.

#define ZLOAD4 VMOVUPS 0(DI), Z0; VMOVUPS 64(DI), Z1; VMOVUPS 128(DI), Z2; VMOVUPS 192(DI), Z3
#define ZSTORE4 VMOVUPS Z0, 0(DI); VMOVUPS Z1, 64(DI); VMOVUPS Z2, 128(DI); VMOVUPS Z3, 192(DI)
#define ZSTEP4 VMULPS 0(BX), Z8, Z9; VADDPS Z9, Z0, Z0; VMULPS 64(BX), Z8, Z10; VADDPS Z10, Z1, Z1; VMULPS 128(BX), Z8, Z11; VADDPS Z11, Z2, Z2; VMULPS 192(BX), Z8, Z12; VADDPS Z12, Z3, Z3

#define ZLOADREM1 VMOVUPS.Z 0(DI), K1, Z0
#define ZLOADREM2 VMOVUPS 0(DI), Z0; VMOVUPS.Z 64(DI), K1, Z1
#define ZLOADREM3 VMOVUPS 0(DI), Z0; VMOVUPS 64(DI), Z1; VMOVUPS.Z 128(DI), K1, Z2
#define ZLOADREM4 VMOVUPS 0(DI), Z0; VMOVUPS 64(DI), Z1; VMOVUPS 128(DI), Z2; VMOVUPS.Z 192(DI), K1, Z3

#define ZSTOREREM1 VMOVUPS Z0, K1, 0(DI)
#define ZSTOREREM2 VMOVUPS Z0, 0(DI); VMOVUPS Z1, K1, 64(DI)
#define ZSTOREREM3 VMOVUPS Z0, 0(DI); VMOVUPS Z1, 64(DI); VMOVUPS Z2, K1, 128(DI)
#define ZSTOREREM4 VMOVUPS Z0, 0(DI); VMOVUPS Z1, 64(DI); VMOVUPS Z2, 128(DI); VMOVUPS Z3, K1, 192(DI)

#define ZSTEPREM1 VMOVUPS.Z 0(BX), K1, Z9; VMULPS Z9, Z8, Z9; VADDPS Z9, Z0, Z0
#define ZSTEPREM2 VMULPS 0(BX), Z8, Z9; VADDPS Z9, Z0, Z0; VMOVUPS.Z 64(BX), K1, Z10; VMULPS Z10, Z8, Z10; VADDPS Z10, Z1, Z1
#define ZSTEPREM3 VMULPS 0(BX), Z8, Z9; VADDPS Z9, Z0, Z0; VMULPS 64(BX), Z8, Z10; VADDPS Z10, Z1, Z1; VMOVUPS.Z 128(BX), K1, Z11; VMULPS Z11, Z8, Z11; VADDPS Z11, Z2, Z2
#define ZSTEPREM4 VMULPS 0(BX), Z8, Z9; VADDPS Z9, Z0, Z0; VMULPS 64(BX), Z8, Z10; VADDPS Z10, Z1, Z1; VMULPS 128(BX), Z8, Z11; VADDPS Z11, Z2, Z2; VMOVUPS.Z 192(BX), K1, Z12; VMULPS Z12, Z8, Z12; VADDPS Z12, Z3, Z3

// ZMASK sets K1 to the lanes of the last accumulator of an r-column
// remainder, r = CX in [1,64): the low ((r-1) mod 16) + 1 bits, which is
// 2<<((r-1) mod 16) - 1. It keeps CX and clobbers AX and R11.
#define ZMASK \
	MOVQ  CX, R11; \
	DECL  CX; \
	ANDL  $15, CX; \
	MOVL  $2, AX; \
	SHLL  CX, AX; \
	DECL  AX; \
	KMOVW AX, K1; \
	MOVQ  R11, CX

// func mulAddRowStridedAVX512(ci, ai []float32, lda int, b []float32, p0, p1, n int, skipZero bool)
//
// mulAddRowStridedAVX2's contract at twice the width, with no branch on
// the data: 64-column tiles in four ZMM accumulators, then the remainder
// in one masked pass. mulAddRow sends rows of every stride here, 1
// included.
TEXT ·mulAddRowStridedAVX512(SB), NOSPLIT, $0-105
	MOVQ ci_base+0(FP), DI
	MOVQ ai_base+24(FP), SI
	MOVQ lda+48(FP), R8
	MOVQ b_base+56(FP), DX
	MOVQ p0+80(FP), AX
	MOVQ p1+88(FP), R9
	MOVQ n+96(FP), CX
	MOVBLZX skipZero+104(FP), R13
	XORL $1, R13
	LEAQ skipRows<>(SB), R14
	SUBQ AX, R9
	JLE  done
	MOVQ CX, R10
	SHLQ $2, R10
	SHLQ $2, R8
	MOVQ AX, R11
	IMULQ R10, R11
	ADDQ R11, DX
	IMULQ R8, AX
	ADDQ AX, SI
	IMULQ R8, R9
	ADDQ SI, R9

tile64:
	CMPQ CX, $64
	JLT  rem
	ZLOAD4
	ZKLOOP(ZSTEP4, loop64)
	ZSTORE4
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $64, CX
	JMP  tile64

rem:
	TESTQ CX, CX
	JZ    done
	ZMASK
	CMPQ CX, $48
	JGT  rem4
	CMPQ CX, $32
	JGT  rem3
	CMPQ CX, $16
	JGT  rem2
	ZLOADREM1
	ZKLOOP(ZSTEPREM1, loopr1)
	ZSTOREREM1
	JMP  done

rem2:
	ZLOADREM2
	ZKLOOP(ZSTEPREM2, loopr2)
	ZSTOREREM2
	JMP  done

rem3:
	ZLOADREM3
	ZKLOOP(ZSTEPREM3, loopr3)
	ZSTOREREM3
	JMP  done

rem4:
	ZLOADREM4
	ZKLOOP(ZSTEPREM4, loopr4)
	ZSTOREREM4

done:
	VZEROUPPER
	RET

// The aggregation run kernels: dst[j] += Σᵢ w[i]·x[idx[i]*rs + j], i
// ascending. A column tile of dst stays in registers for the whole run
// and is loaded and stored once; every source row adds into it with a
// VBROADCASTSS of w[i], a VMULPS and a VADDPS, the AxpyRow step, so each
// element gets the per-edge walk's terms in its order. Registers:
//   DI  &dst[j0]        current column tile of dst
//   SI  &x[j0]          the same columns of x's row 0
//   R8  &idx[0], R9 &w[0]
//   R10 len(idx) >= 1, DX len(idx)-1 (the look-ahead clamp)
//   R14 4*rs            x row stride in bytes
//   CX  columns left
//   AX  i, BX &x[idx[i]*rs + j0], R12 the row two ahead
//   R11 scratch of the mask set-up

// RUNADDR points BX at source row i's tile and R12 at the tile of row
// min(i+2, len(idx)-1), clamped by a CMOV: no branch, and idx is never
// read past the run. The caller checked every idx[i] against x's rows.
#define RUNADDR \
	MOVLQSX (R8)(AX*4), BX; \
	LEAQ    2(AX), R12; \
	CMPQ    R12, DX; \
	CMOVQGT DX, R12; \
	MOVLQSX (R8)(R12*4), R12; \
	IMULQ   R14, BX; \
	IMULQ   R14, R12; \
	ADDQ    SI, BX; \
	ADDQ    SI, R12

// Prefetches of the row two ahead, one per 64-byte line of the tile. A
// prefetch never faults, so a line past the row's end costs nothing.
#define RPF1 PREFETCHT0 0(R12)
#define RPF2 RPF1; PREFETCHT0 64(R12)
#define RPF3 RPF2; PREFETCHT0 128(R12)
#define RPF4 RPF3; PREFETCHT0 192(R12)
#define RPF5 RPF4; PREFETCHT0 256(R12)
#define RPF6 RPF5; PREFETCHT0 320(R12)
#define RPF7 RPF6; PREFETCHT0 384(R12)
#define RPF8 RPF7; PREFETCHT0 448(R12)

// ZRLOOP and YRLOOP run the whole run for the tile whose accumulators are
// loaded: for each i, RUNADDR, PF, broadcast w[i] and apply ACC to the
// row at BX. The only branch is the loop's own; the loop head is 32-byte
// aligned.
#define ZRLOOP(ACC, PF, loop) \
	XORQ AX, AX; \
	PCALIGN $32; \
loop: \
	RUNADDR; \
	PF; \
	VBROADCASTSS (R9)(AX*4), Z8; \
	ACC; \
	INCQ AX; \
	CMPQ AX, R10; \
	JLT  loop

#define YRLOOP(ACC, PF, loop) \
	XORQ AX, AX; \
	PCALIGN $32; \
loop: \
	RUNADDR; \
	PF; \
	VBROADCASTSS (R9)(AX*4), Y8; \
	ACC; \
	INCQ AX; \
	CMPQ AX, R10; \
	JLT  loop

// One ZMM accumulator: load, store and add of a full one and of the
// masked last one of a remainder (zero-masked loads, masked store).
#define RZL(z, off) VMOVUPS off(DI), z
#define RZLM(z, off) VMOVUPS.Z off(DI), K1, z
#define RZS(z, off) VMOVUPS z, off(DI)
#define RZSM(z, off) VMOVUPS z, K1, off(DI)
#define RZA(z, off) VMULPS off(BX), Z8, Z9; VADDPS Z9, z, z
#define RZAM(z, off) VMOVUPS.Z off(BX), K1, Z9; VMULPS Z9, Z8, Z9; VADDPS Z9, z, z

// The 128-column tile, Z0..Z7.
#define RZLOAD8 RZL(Z0, 0); RZL(Z1, 64); RZL(Z2, 128); RZL(Z3, 192); RZL(Z4, 256); RZL(Z5, 320); RZL(Z6, 384); RZL(Z7, 448)
#define RZSTORE8 RZS(Z0, 0); RZS(Z1, 64); RZS(Z2, 128); RZS(Z3, 192); RZS(Z4, 256); RZS(Z5, 320); RZS(Z6, 384); RZS(Z7, 448)
#define RZACC8 RZA(Z0, 0); RZA(Z1, 64); RZA(Z2, 128); RZA(Z3, 192); RZA(Z4, 256); RZA(Z5, 320); RZA(Z6, 384); RZA(Z7, 448)

// A remainder of r < 128 columns: REMn has n-1 full accumulators and the
// masked one, n = ⌈r/16⌉.
#define RZLOADR1 RZLM(Z0, 0)
#define RZLOADR2 RZL(Z0, 0); RZLM(Z1, 64)
#define RZLOADR3 RZL(Z0, 0); RZL(Z1, 64); RZLM(Z2, 128)
#define RZLOADR4 RZL(Z0, 0); RZL(Z1, 64); RZL(Z2, 128); RZLM(Z3, 192)
#define RZLOADR5 RZL(Z0, 0); RZL(Z1, 64); RZL(Z2, 128); RZL(Z3, 192); RZLM(Z4, 256)
#define RZLOADR6 RZL(Z0, 0); RZL(Z1, 64); RZL(Z2, 128); RZL(Z3, 192); RZL(Z4, 256); RZLM(Z5, 320)
#define RZLOADR7 RZL(Z0, 0); RZL(Z1, 64); RZL(Z2, 128); RZL(Z3, 192); RZL(Z4, 256); RZL(Z5, 320); RZLM(Z6, 384)
#define RZLOADR8 RZL(Z0, 0); RZL(Z1, 64); RZL(Z2, 128); RZL(Z3, 192); RZL(Z4, 256); RZL(Z5, 320); RZL(Z6, 384); RZLM(Z7, 448)

#define RZSTORER1 RZSM(Z0, 0)
#define RZSTORER2 RZS(Z0, 0); RZSM(Z1, 64)
#define RZSTORER3 RZS(Z0, 0); RZS(Z1, 64); RZSM(Z2, 128)
#define RZSTORER4 RZS(Z0, 0); RZS(Z1, 64); RZS(Z2, 128); RZSM(Z3, 192)
#define RZSTORER5 RZS(Z0, 0); RZS(Z1, 64); RZS(Z2, 128); RZS(Z3, 192); RZSM(Z4, 256)
#define RZSTORER6 RZS(Z0, 0); RZS(Z1, 64); RZS(Z2, 128); RZS(Z3, 192); RZS(Z4, 256); RZSM(Z5, 320)
#define RZSTORER7 RZS(Z0, 0); RZS(Z1, 64); RZS(Z2, 128); RZS(Z3, 192); RZS(Z4, 256); RZS(Z5, 320); RZSM(Z6, 384)
#define RZSTORER8 RZS(Z0, 0); RZS(Z1, 64); RZS(Z2, 128); RZS(Z3, 192); RZS(Z4, 256); RZS(Z5, 320); RZS(Z6, 384); RZSM(Z7, 448)

#define RZACCR1 RZAM(Z0, 0)
#define RZACCR2 RZA(Z0, 0); RZAM(Z1, 64)
#define RZACCR3 RZA(Z0, 0); RZA(Z1, 64); RZAM(Z2, 128)
#define RZACCR4 RZA(Z0, 0); RZA(Z1, 64); RZA(Z2, 128); RZAM(Z3, 192)
#define RZACCR5 RZA(Z0, 0); RZA(Z1, 64); RZA(Z2, 128); RZA(Z3, 192); RZAM(Z4, 256)
#define RZACCR6 RZA(Z0, 0); RZA(Z1, 64); RZA(Z2, 128); RZA(Z3, 192); RZA(Z4, 256); RZAM(Z5, 320)
#define RZACCR7 RZA(Z0, 0); RZA(Z1, 64); RZA(Z2, 128); RZA(Z3, 192); RZA(Z4, 256); RZA(Z5, 320); RZAM(Z6, 384)
#define RZACCR8 RZA(Z0, 0); RZA(Z1, 64); RZA(Z2, 128); RZA(Z3, 192); RZA(Z4, 256); RZA(Z5, 320); RZA(Z6, 384); RZAM(Z7, 448)

// RZREM runs the remainder with n accumulators and jumps to rdone.
#define RZREM(LOAD, ACC, PF, STORE, loop) \
	LOAD; \
	ZRLOOP(ACC, PF, loop); \
	STORE; \
	JMP rdone

// func accumRunAVX512(dst, x []float32, rs int, idx []int32, w []float32)
//
// dst[j] += w[i]*x[idx[i]*rs+j] for i in [0,len(idx)), j in [0,rs), i
// ascending per j: 128-column tiles in Z0..Z7, then the 1–127 column
// remainder in one more pass over ⌈r/16⌉ accumulators, the last under
// K1. The caller guarantees len(dst) >= rs, len(w) >= len(idx) and
// 0 <= idx[i] < len(x)/rs.
TEXT ·accumRunAVX512(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ rs+48(FP), CX
	MOVQ idx_base+56(FP), R8
	MOVQ idx_len+64(FP), R10
	MOVQ w_base+80(FP), R9
	TESTQ R10, R10
	JEQ  rret
	LEAQ -1(R10), DX
	MOVQ CX, R14
	SHLQ $2, R14

rtile128:
	CMPQ CX, $128
	JLT  rrem
	RZLOAD8
	ZRLOOP(RZACC8, RPF8, rloop128)
	RZSTORE8
	ADDQ $512, DI
	ADDQ $512, SI
	SUBQ $128, CX
	JMP  rtile128

rrem:
	TESTQ CX, CX
	JZ    rdone
	ZMASK
	CMPQ CX, $64
	JGT  rrem5to8
	CMPQ CX, $32
	JGT  rrem3to4
	CMPQ CX, $16
	JGT  rrem2
	RZREM(RZLOADR1, RZACCR1, RPF1, RZSTORER1, rloopr1)
rrem2:
	RZREM(RZLOADR2, RZACCR2, RPF2, RZSTORER2, rloopr2)
rrem3to4:
	CMPQ CX, $48
	JGT  rrem4
	RZREM(RZLOADR3, RZACCR3, RPF3, RZSTORER3, rloopr3)
rrem4:
	RZREM(RZLOADR4, RZACCR4, RPF4, RZSTORER4, rloopr4)
rrem5to8:
	CMPQ CX, $96
	JGT  rrem7to8
	CMPQ CX, $80
	JGT  rrem6
	RZREM(RZLOADR5, RZACCR5, RPF5, RZSTORER5, rloopr5)
rrem6:
	RZREM(RZLOADR6, RZACCR6, RPF6, RZSTORER6, rloopr6)
rrem7to8:
	CMPQ CX, $112
	JGT  rrem8
	RZREM(RZLOADR7, RZACCR7, RPF7, RZSTORER7, rloopr7)
rrem8:
	RZREM(RZLOADR8, RZACCR8, RPF8, RZSTORER8, rloopr8)

rdone:
	VZEROUPPER
rret:
	RET

// func accumRunAVX2(dst, x []float32, rs int, idx []int32, w []float32)
//
// accumRunAVX512's contract on AVX2, with mulAddRowAVX2's tiles: 64
// columns in Y0..Y7, then 32-, 16- and 8-wide tiles and a VMASKMOVPS
// tail, each its own pass over the run. The step is STEPn of the matmul
// row: the broadcast weight in Y8 times the row at BX.
TEXT ·accumRunAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ rs+48(FP), CX
	MOVQ idx_base+56(FP), R8
	MOVQ idx_len+64(FP), R10
	MOVQ w_base+80(FP), R9
	TESTQ R10, R10
	JEQ  yret
	LEAQ -1(R10), DX
	MOVQ CX, R14
	SHLQ $2, R14

ytile64:
	CMPQ CX, $64
	JLT  ytile32
	LOAD8
	YRLOOP(STEP8, RPF4, yloop64)
	STORE8
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $64, CX
	JMP  ytile64

ytile32:
	CMPQ CX, $32
	JLT  ytile16
	LOAD4
	YRLOOP(STEP4, RPF2, yloop32)
	STORE4
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $32, CX

ytile16:
	CMPQ CX, $16
	JLT  ytile8
	LOAD2
	YRLOOP(STEP2, RPF1, yloop16)
	STORE2
	ADDQ $64, DI
	ADDQ $64, SI
	SUBQ $16, CX

ytile8:
	CMPQ CX, $8
	JLT  ytail
	LOAD1
	YRLOOP(STEP1, RPF1, yloop8)
	STORE1
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, CX

ytail:
	TESTQ CX, CX
	JZ    ydone
	LEAQ  tailMask<>+32(SB), AX
	SHLQ  $2, CX
	SUBQ  CX, AX
	VMOVDQU    (AX), Y13
	VMASKMOVPS (DI), Y13, Y0
	YRLOOP(STEPTAIL, RPF1, yloopt)
	VMASKMOVPS Y0, Y13, (DI)

ydone:
	VZEROUPPER
yret:
	RET
