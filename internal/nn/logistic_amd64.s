#include "textflag.h"

// logisticAVX2 evaluates 1/(1+exp(x)), x = negAlpha·v, four lanes per YMM
// register. The exp is an op-for-op copy of the avxfma branch of the Go
// runtime's math.archExp ($GOROOT/src/math/exp_amd64.s, Shibata's SLEEF
// method), so every lane carries the bits math.Exp returns on a host where
// that branch runs. The constants below are copied from that file verbatim.

#define LOG2E 1.4426950408889634073599246810018920 // 1/LN2
#define LN2U 0.69314718055966295651160180568695068359375 // upper half LN2
#define LN2L 0.28235290563031577122588448175013436025525412068e-12 // lower half LN2
#define Overflow 7.09782712893384e+02

DATA logisticdata<>+0(SB)/8, $0.5
DATA logisticdata<>+8(SB)/8, $1.0
DATA logisticdata<>+16(SB)/8, $2.0
DATA logisticdata<>+24(SB)/8, $1.6666666666666666667e-1
DATA logisticdata<>+32(SB)/8, $4.1666666666666666667e-2
DATA logisticdata<>+40(SB)/8, $8.3333333333333333333e-3
DATA logisticdata<>+48(SB)/8, $1.3888888888888888889e-3
DATA logisticdata<>+56(SB)/8, $1.9841269841269841270e-4
DATA logisticdata<>+64(SB)/8, $2.4801587301587301587e-5
DATA logisticdata<>+72(SB)/8, $LOG2E
DATA logisticdata<>+80(SB)/8, $LN2U
DATA logisticdata<>+88(SB)/8, $LN2L
DATA logisticdata<>+96(SB)/8, $0.0625
DATA logisticdata<>+104(SB)/8, $-700.0             // lowest in-range x: 2^k stays normal
DATA logisticdata<>+112(SB)/8, $Overflow           // highest in-range x
DATA logisticdata<>+120(SB)/8, $4503599627371519.0 // 2^52 + 1023: k+1023 in the low mantissa bits
GLOBL logisticdata<>+0(SB), RODATA, $128

// func logisticAVX2(negAlpha float64, pre, out []float64) int
//
// Writes out[i] for i < len(pre)&^3 in blocks of four and returns how many
// it wrote. It stops before the first block holding a lane whose x is NaN
// or outside [-700, Overflow]; the caller finishes the row from there.
TEXT ·logisticAVX2(SB), NOSPLIT, $0-64
	MOVQ pre_base+8(FP), SI
	MOVQ pre_len+16(FP), CX
	MOVQ out_base+32(FP), DI
	ANDQ $~3, CX
	XORQ AX, AX
	VBROADCASTSD negAlpha+0(FP), Y4
	VBROADCASTSD logisticdata<>+72(SB), Y5
	VBROADCASTSD logisticdata<>+80(SB), Y6
	VBROADCASTSD logisticdata<>+88(SB), Y7
	VBROADCASTSD logisticdata<>+96(SB), Y8
	VBROADCASTSD logisticdata<>+56(SB), Y9
	VBROADCASTSD logisticdata<>+48(SB), Y10
	VBROADCASTSD logisticdata<>+40(SB), Y11
	VBROADCASTSD logisticdata<>+32(SB), Y12
	VBROADCASTSD logisticdata<>+24(SB), Y13
	VBROADCASTSD logisticdata<>+0(SB), Y14
	VBROADCASTSD logisticdata<>+8(SB), Y15

loop:
	CMPQ AX, CX
	JGE  done
	VMULPD (SI)(AX*8), Y4, Y0 // x = negAlpha·v

	// Range check: -700 <= x <= Overflow, both ordered (false for NaN).
	VBROADCASTSD logisticdata<>+104(SB), Y2
	VCMPPD       $0x1d, Y2, Y0, Y2 // x >= -700
	VBROADCASTSD logisticdata<>+112(SB), Y3
	VCMPPD       $0x12, Y3, Y0, Y3 // x <= Overflow
	VANDPD       Y2, Y3, Y3
	VMOVMSKPD    Y3, DX
	CMPQ         DX, $15
	JNE          done

	// k = round-to-nearest-even(LOG2E·x), as CVTSD2SL under the default MXCSR.
	VMULPD   Y5, Y0, Y1
	VROUNDPD $0, Y1, Y1
	VFNMADD231PD Y6, Y1, Y0 // x -= k·LN2U
	VFNMADD231PD Y7, Y1, Y0 // x -= k·LN2L
	// reduce argument
	VMULPD Y8, Y0, Y0
	// Taylor series evaluation
	VBROADCASTSD logisticdata<>+64(SB), Y2
	VFMADD213PD  Y9, Y0, Y2
	VFMADD213PD  Y10, Y0, Y2
	VFMADD213PD  Y11, Y0, Y2
	VFMADD213PD  Y12, Y0, Y2
	VFMADD213PD  Y13, Y0, Y2
	VFMADD213PD  Y14, Y0, Y2
	VFMADD213PD  Y15, Y0, Y2
	VMULPD       Y2, Y0, Y0
	VBROADCASTSD logisticdata<>+16(SB), Y3
	VADDPD       Y3, Y0, Y2
	VMULPD       Y2, Y0, Y0
	VADDPD       Y3, Y0, Y2
	VMULPD       Y2, Y0, Y0
	VADDPD       Y3, Y0, Y2
	VMULPD       Y2, Y0, Y0
	VADDPD       Y3, Y0, Y2
	VFMADD213PD  Y15, Y2, Y0

	// return fr * 2**exponent; k = 1024 builds +Inf, as archExp's overflow exit does.
	VBROADCASTSD logisticdata<>+120(SB), Y3
	VADDPD       Y3, Y1, Y1
	VPSLLQ       $52, Y1, Y1
	VMULPD       Y1, Y0, Y0

	// 1/(1+exp(x))
	VADDPD  Y15, Y0, Y0
	VDIVPD  Y0, Y15, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop

done:
	VZEROUPPER // the caller's SSE code would otherwise pay a state transition
	MOVQ AX, ret+56(FP)
	RET

// func logisticAVX512(negAlpha float64, pre, out []float64) int
//
// logisticAVX2 eight lanes per ZMM register, lane for lane the same
// operations, with VRNDSCALEPD $0 (round to nearest even) for VROUNDPD $0.
// It writes out[i] for every i < len(pre), the len%8 tail in a last block
// under an opmask, and returns how many it wrote: len(pre), or the start
// of the first block holding a valid lane whose x is NaN or outside
// [-700, Overflow]; the caller finishes the row from there. It keeps to
// Z0–Z15, whose upper halves VZEROUPPER clears on return. It does not
// clear Z16–Z31: with constants left there, the scalar code after each
// call ran slower, and a served one-row prediction cost ~6% more CPU.
TEXT ·logisticAVX512(SB), NOSPLIT, $0-64
	MOVQ pre_base+8(FP), SI
	MOVQ pre_len+16(FP), R8
	MOVQ out_base+32(FP), DI
	XORQ AX, AX
	VBROADCASTSD negAlpha+0(FP), Z4
	VBROADCASTSD logisticdata<>+72(SB), Z5
	VBROADCASTSD logisticdata<>+80(SB), Z6
	VBROADCASTSD logisticdata<>+88(SB), Z7
	VBROADCASTSD logisticdata<>+96(SB), Z8
	VBROADCASTSD logisticdata<>+56(SB), Z9
	VBROADCASTSD logisticdata<>+48(SB), Z10
	VBROADCASTSD logisticdata<>+40(SB), Z11
	VBROADCASTSD logisticdata<>+32(SB), Z12
	VBROADCASTSD logisticdata<>+24(SB), Z13
	VBROADCASTSD logisticdata<>+0(SB), Z14
	VBROADCASTSD logisticdata<>+8(SB), Z15

zloop:
	MOVQ R8, CX
	SUBQ AX, CX // elements left
	JLE  zdone
	MOVL $0xff, BX
	CMPQ CX, $8
	JGE  zblock
	MOVL $1, BX // a tail of CX < 8 elements: the first CX lanes
	SHLL CX, BX
	DECL BX

zblock:
	KMOVB     BX, K1
	VMOVUPD.Z (SI)(AX*8), K1, Z1
	VMULPD    Z1, Z4, Z0 // x = negAlpha·v

	// Range check on the valid lanes: -700 <= x <= Overflow, both ordered
	// (false for NaN).
	VBROADCASTSD logisticdata<>+104(SB), Z2
	VCMPPD       $0x1d, Z2, Z0, K1, K2 // x >= -700
	VBROADCASTSD logisticdata<>+112(SB), Z3
	VCMPPD       $0x12, Z3, Z0, K2, K2 // x <= Overflow
	KXORB        K1, K2, K2
	KORTESTB     K2, K2
	JNZ          zdone

	// k = round-to-nearest-even(LOG2E·x), as CVTSD2SL under the default MXCSR.
	VMULPD       Z5, Z0, Z1
	VRNDSCALEPD  $0, Z1, Z1
	VFNMADD231PD Z6, Z1, Z0 // x -= k·LN2U
	VFNMADD231PD Z7, Z1, Z0 // x -= k·LN2L
	// reduce argument
	VMULPD Z8, Z0, Z0
	// Taylor series evaluation
	VBROADCASTSD logisticdata<>+64(SB), Z2
	VFMADD213PD  Z9, Z0, Z2
	VFMADD213PD  Z10, Z0, Z2
	VFMADD213PD  Z11, Z0, Z2
	VFMADD213PD  Z12, Z0, Z2
	VFMADD213PD  Z13, Z0, Z2
	VFMADD213PD  Z14, Z0, Z2
	VFMADD213PD  Z15, Z0, Z2
	VMULPD       Z2, Z0, Z0
	VBROADCASTSD logisticdata<>+16(SB), Z3
	VADDPD       Z3, Z0, Z2
	VMULPD       Z2, Z0, Z0
	VADDPD       Z3, Z0, Z2
	VMULPD       Z2, Z0, Z0
	VADDPD       Z3, Z0, Z2
	VMULPD       Z2, Z0, Z0
	VADDPD       Z3, Z0, Z2
	VFMADD213PD  Z15, Z2, Z0

	// return fr * 2**exponent; k = 1024 builds +Inf, as archExp's overflow exit does.
	VBROADCASTSD logisticdata<>+120(SB), Z3
	VADDPD       Z3, Z1, Z1
	VPSLLQ       $52, Z1, Z1
	VMULPD       Z1, Z0, Z0

	// 1/(1+exp(x))
	VADDPD  Z15, Z0, Z0
	VDIVPD  Z0, Z15, Z0
	VMOVUPD Z0, K1, (DI)(AX*8)
	ADDQ    $8, AX
	JMP     zloop

zdone:
	CMPQ    AX, R8
	CMOVQGT R8, AX // a written tail block ends at len(pre)
	VZEROUPPER
	MOVQ    AX, ret+56(FP)
	RET

// func logisticDerivAVX(alpha float64, y, dst []float64) int
//
// dst[i] *= (alpha·y[i])·(1−y[i]) for i < len(dst)&^3, the scalar
// expression lane for lane: VMULPD and VSUBPD round as MULSD and SUBSD do,
// and no product is fused. It stops before the first block where y or dst
// holds a NaN, returning how many elements it wrote. Without NaN inputs at
// most one operand of each product is NaN (0·Inf makes the default NaN),
// so the operand order, which picks the payload of two NaNs, cannot change
// a result bit; ±Inf lanes are computed here.
TEXT ·logisticDerivAVX(SB), NOSPLIT, $0-64
	MOVQ y_base+8(FP), SI
	MOVQ dst_base+32(FP), DI
	MOVQ dst_len+40(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX
	VBROADCASTSD alpha+0(FP), Y4
	VBROADCASTSD logisticdata<>+8(SB), Y5 // 1.0

derivloop:
	CMPQ      AX, CX
	JGE       derivdone
	VMOVUPD   (SI)(AX*8), Y0
	VMOVUPD   (DI)(AX*8), Y1
	VCMPPD    $3, Y1, Y0, Y2 // unordered: y or dst is NaN
	VMOVMSKPD Y2, DX
	TESTQ     DX, DX
	JNE       derivdone
	VMULPD    Y0, Y4, Y2 // α·y
	VSUBPD    Y0, Y5, Y3 // 1−y
	VMULPD    Y3, Y2, Y2
	VMULPD    Y2, Y1, Y1
	VMOVUPD   Y1, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       derivloop

derivdone:
	VZEROUPPER
	MOVQ AX, ret+56(FP)
	RET
