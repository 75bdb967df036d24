// The Box–Muller kernel: dst[i] = Sqrt(-2·Log(u[i])) · Cos(2π·v[i]) over
// float64 rows, eight lanes to a ZMM register.
//
// Each lane runs the op sequence of the Go functions the generic path
// calls, in their order: math.Log is archLog ($GOROOT/src/math/log_amd64.s:
// frexp by bit masks, the √2/2 fold, s = f/(2+f), both polynomials, the
// k·ln2 recombination) and math.Cos is cos ($GOROOT/src/math/sin.go, the
// branch for arguments below reduceThreshold: the octant by truncation,
// Cody–Waite reduction by PI4A/PI4B/PI4C, both polynomials, the one the
// octant selects and its sign). Every step is one VMULPD, VADDPD, VSUBPD,
// VDIVPD or VSQRTPD — never a fused multiply-add — on the constants the Go
// code uses, so each lane rounds exactly where the scalar code does and the
// result is its bits. The branches become masks: the fold is a masked
// subtract and multiply (k - 0 and f1·1 are exact, so the unmasked lanes
// are what the scalar code computes), the octant selection a masked move
// and the sign a masked XOR of the sign bit.
//
// The domain is the one NormFloat64s draws: 0 < u < 1 and 0 ≤ v < 1. There
// the integer parts are small: the exponent and the octant are read off
// and put back through 2⁵² (x | 2⁵² as a float is 2⁵² + x exactly), which
// is what CVTSL2SD and uint64(·) give on them.

#include "textflag.h"

DATA bm<>+0(SB)/8, $0x000fffffffffffff   // mantissa mask
DATA bm<>+8(SB)/8, $0x3fe0000000000000   // 0.5
DATA bm<>+16(SB)/8, $0x4330000000000000  // 2⁵²
DATA bm<>+24(SB)/8, $0x43300000000003fe  // 2⁵² + 0x3fe
DATA bm<>+32(SB)/8, $0x3fe6a09e667f3bcd  // √2/2
DATA bm<>+40(SB)/8, $0x3ff0000000000000  // 1
DATA bm<>+48(SB)/8, $0x4000000000000000  // 2
DATA bm<>+56(SB)/8, $0x3fc2f112df3e5244  // L7
DATA bm<>+64(SB)/8, $0x3fc7466496cb03de  // L5
DATA bm<>+72(SB)/8, $0x3fd2492494229359  // L3
DATA bm<>+80(SB)/8, $0x3fe5555555555593  // L1
DATA bm<>+88(SB)/8, $0x3fc39a09d078c69f  // L6
DATA bm<>+96(SB)/8, $0x3fcc71c51d8e78af  // L4
DATA bm<>+104(SB)/8, $0x3fd999999997fa04 // L2
DATA bm<>+112(SB)/8, $0x3fe62e42fee00000 // Ln2Hi
DATA bm<>+120(SB)/8, $0x3dea39ef35793c76 // Ln2Lo
DATA bm<>+128(SB)/8, $0xc000000000000000 // -2
DATA bm<>+136(SB)/8, $0x401921fb54442d18 // 2π
DATA bm<>+144(SB)/8, $0x3ff45f306dc9c883 // 4/π
DATA bm<>+152(SB)/8, $0x3fe921fb40000000 // PI4A
DATA bm<>+160(SB)/8, $0x3e64442d00000000 // PI4B
DATA bm<>+168(SB)/8, $0x3ce8469898cc5170 // PI4C
DATA bm<>+176(SB)/8, $0x3de5d8fd1fd19ccd // _sin[0]
DATA bm<>+184(SB)/8, $0xbe5ae5e5a9291f5d // _sin[1]
DATA bm<>+192(SB)/8, $0x3ec71de3567d48a1 // _sin[2]
DATA bm<>+200(SB)/8, $0xbf2a01a019bfdf03 // _sin[3]
DATA bm<>+208(SB)/8, $0x3f8111111110f7d0 // _sin[4]
DATA bm<>+216(SB)/8, $0xbfc5555555555548 // _sin[5]
DATA bm<>+224(SB)/8, $0xbda8fa49a0861a9b // _cos[0]
DATA bm<>+232(SB)/8, $0x3e21ee9d7b4e3f05 // _cos[1]
DATA bm<>+240(SB)/8, $0xbe927e4f7eac4bc6 // _cos[2]
DATA bm<>+248(SB)/8, $0x3efa01a019c844f5 // _cos[3]
DATA bm<>+256(SB)/8, $0xbf56c16c16c14f91 // _cos[4]
DATA bm<>+264(SB)/8, $0x3fa555555555554b // _cos[5]
DATA bm<>+272(SB)/8, $1                  // integer 1
DATA bm<>+280(SB)/8, $2                  // integer 2
DATA bm<>+288(SB)/8, $0x8000000000000000 // sign bit
GLOBL bm<>(SB), RODATA|NOPTR, $296

// func boxMullerAVX512(dst, u, v []float64)
//
// dst[i] = Sqrt(-2·Log(u[i])) · Cos(2π·v[i]) for i < len(dst), eight lanes
// per pass under the mask K4: all eight, then the last 1–7. A pass reads u
// and v into Z0 and Z1, computes the lanes in Z3 and writes Z0–Z15 (the
// registers VZEROUPPER clears) and K1–K3. The caller guarantees len(u) and
// len(v) >= len(dst); dst may be u or v.
TEXT ·boxMullerAVX512(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ u_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	TESTQ CX, CX
	JEQ   bmret
	MOVL  $0xff, AX
	KMOVW AX, K4
	PCALIGN $32
bmloop:
	CMPQ CX, $8
	JGE  bmpass
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K4
bmpass:
	VMOVUPD.Z (SI), K4, Z0
	VMOVUPD.Z (DX), K4, Z1
	// f1, k := Frexp(u): f1 in [0.5, 1), k = exponent - 0x3fe
	VPANDQ.BCST  bm<>+0(SB), Z0, Z2
	VPORQ.BCST   bm<>+8(SB), Z2, Z2
	VPSRLQ       $52, Z0, Z3
	VPORQ.BCST   bm<>+16(SB), Z3, Z3
	VSUBPD.BCST  bm<>+24(SB), Z3, Z3
	// if !(f1 > √2/2) { k -= 1; f1 *= 2 }: archLog's CMPSD $5, NLT(√2/2, f1)
	VCMPPD.BCST  $10, bm<>+32(SB), Z2, K1
	VSUBPD.BCST  bm<>+40(SB), Z3, K1, Z3
	VMULPD.BCST  bm<>+48(SB), Z2, K1, Z2
	// f := f1 - 1; s := f / (2 + f); s2 := s*s; s4 := s2*s2
	VSUBPD.BCST  bm<>+40(SB), Z2, Z4
	VADDPD.BCST  bm<>+48(SB), Z4, Z5
	VDIVPD       Z5, Z4, Z5
	VMULPD       Z5, Z5, Z6
	VMULPD       Z6, Z6, Z7
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD.BCST  bm<>+56(SB), Z7, Z8
	VADDPD.BCST  bm<>+64(SB), Z8, Z8
	VMULPD       Z7, Z8, Z8
	VADDPD.BCST  bm<>+72(SB), Z8, Z8
	VMULPD       Z7, Z8, Z8
	VADDPD.BCST  bm<>+80(SB), Z8, Z8
	VMULPD       Z8, Z6, Z6
	// t2 := s4 * (L2 + s4*(L4+s4*L6)); R := t1 + t2
	VMULPD.BCST  bm<>+88(SB), Z7, Z8
	VADDPD.BCST  bm<>+96(SB), Z8, Z8
	VMULPD       Z7, Z8, Z8
	VADDPD.BCST  bm<>+104(SB), Z8, Z8
	VMULPD       Z8, Z7, Z7
	VADDPD       Z7, Z6, Z6
	// hfsq := 0.5*f*f
	VMULPD.BCST  bm<>+8(SB), Z4, Z8
	VMULPD       Z4, Z8, Z8
	// log := k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD       Z8, Z6, Z6
	VMULPD       Z5, Z6, Z6
	VMULPD.BCST  bm<>+120(SB), Z3, Z7
	VADDPD       Z7, Z6, Z6
	VSUBPD       Z6, Z8, Z8
	VSUBPD       Z4, Z8, Z8
	VMULPD.BCST  bm<>+112(SB), Z3, Z3
	VSUBPD       Z8, Z3, Z3
	// Sqrt(-2*log)
	VMULPD.BCST  bm<>+128(SB), Z3, Z3
	VSQRTPD      Z3, Z3
	// x := 2π*v; y := float64(uint64(x * (4/π))), j its bits over 2⁵²
	VMULPD.BCST  bm<>+136(SB), Z1, Z1
	VMULPD.BCST  bm<>+144(SB), Z1, Z9
	VRNDSCALEPD  $3, Z9, Z9
	VADDPD.BCST  bm<>+16(SB), Z9, Z10
	// if j&1 == 1 { j++; y++ }
	VPANDQ.BCST  bm<>+272(SB), Z10, Z11
	VPADDQ       Z11, Z10, Z10
	VSUBPD.BCST  bm<>+16(SB), Z10, Z9
	// z := ((x - y*PI4A) - y*PI4B) - y*PI4C; zz := z*z
	VMULPD.BCST  bm<>+152(SB), Z9, Z11
	VSUBPD       Z11, Z1, Z1
	VMULPD.BCST  bm<>+160(SB), Z9, Z11
	VSUBPD       Z11, Z1, Z1
	VMULPD.BCST  bm<>+168(SB), Z9, Z11
	VSUBPD       Z11, Z1, Z1
	VMULPD       Z1, Z1, Z12
	// sin: z + z*zz*((((((_sin[0]*zz)+_sin[1])*zz+_sin[2])*zz+_sin[3])*zz+_sin[4])*zz+_sin[5])
	VMULPD.BCST  bm<>+176(SB), Z12, Z13
	VADDPD.BCST  bm<>+184(SB), Z13, Z13
	VMULPD       Z12, Z13, Z13
	VADDPD.BCST  bm<>+192(SB), Z13, Z13
	VMULPD       Z12, Z13, Z13
	VADDPD.BCST  bm<>+200(SB), Z13, Z13
	VMULPD       Z12, Z13, Z13
	VADDPD.BCST  bm<>+208(SB), Z13, Z13
	VMULPD       Z12, Z13, Z13
	VADDPD.BCST  bm<>+216(SB), Z13, Z13
	VMULPD       Z12, Z1, Z14
	VMULPD       Z13, Z14, Z14
	VADDPD       Z14, Z1, Z14
	// cos: 1.0 - 0.5*zz + zz*zz*((((((_cos[0]*zz)+_cos[1])*zz+_cos[2])*zz+_cos[3])*zz+_cos[4])*zz+_cos[5])
	VMULPD.BCST  bm<>+224(SB), Z12, Z13
	VADDPD.BCST  bm<>+232(SB), Z13, Z13
	VMULPD       Z12, Z13, Z13
	VADDPD.BCST  bm<>+240(SB), Z13, Z13
	VMULPD       Z12, Z13, Z13
	VADDPD.BCST  bm<>+248(SB), Z13, Z13
	VMULPD       Z12, Z13, Z13
	VADDPD.BCST  bm<>+256(SB), Z13, Z13
	VMULPD       Z12, Z13, Z13
	VADDPD.BCST  bm<>+264(SB), Z13, Z13
	VMULPD.BCST  bm<>+8(SB), Z12, Z15
	VBROADCASTSD bm<>+40(SB), Z0
	VSUBPD       Z15, Z0, Z15
	VMULPD       Z12, Z12, Z11
	VMULPD       Z13, Z11, Z11
	VADDPD       Z11, Z15, Z15
	// octants 2 and 6 (j&2) take the sine, 2 and 4 ((j^j>>1)&2) negate
	VPTESTMQ.BCST bm<>+280(SB), Z10, K2
	VMOVAPD      Z14, K2, Z15
	VPSRLQ       $1, Z10, Z11
	VPXORQ       Z10, Z11, Z11
	VPTESTMQ.BCST bm<>+280(SB), Z11, K3
	VPXORQ.BCST  bm<>+288(SB), Z15, K3, Z15
	VMULPD       Z15, Z3, Z3
	VMOVUPD Z3, K4, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $8, CX
	JGT  bmloop
	VZEROUPPER
bmret:
	RET
