#include "textflag.h"

// func rpropStepAVX512(p, step, prev, grad []float64, etaPlus, etaMinus, stepMin, stepMax float64)
//
// rpropStepGo eight weights per ZMM register, the len(grad)%8 tail under an
// opmask: the same operations per weight in the same order, a separate
// VMULPD and VSUBPD for the move (no FMA). Opmasks hold grow (sign > 0),
// shrink (sign < 0) and the weights that move (not shrink); VMINPD and
// VMAXPD are the clamps, which agree with min and max while no operand is
// NaN and no two operands are zeros (positive finite hyperparameters, which
// the caller requires, rule both out). Masked loads read nothing and masked
// stores write nothing past len(grad). Like the mat and nn kernels it uses
// only Z0–Z15, whose upper halves VZEROUPPER clears (DESIGN.md §13).
TEXT ·rpropStepAVX512(SB), NOSPLIT, $0-128
	MOVQ         p_base+0(FP), DI
	MOVQ         step_base+24(FP), SI
	MOVQ         prev_base+48(FP), DX
	MOVQ         grad_base+72(FP), BX
	MOVQ         grad_len+80(FP), CX
	VBROADCASTSD etaPlus+96(FP), Z8
	VBROADCASTSD etaMinus+104(FP), Z9
	VBROADCASTSD stepMin+112(FP), Z10
	VBROADCASTSD stepMax+120(FP), Z11
	MOVQ         $0x8000000000000000, AX
	VPBROADCASTQ AX, Z12                  // the sign bit
	MOVQ         $0x3ff0000000000000, AX
	VPBROADCASTQ AX, Z13                  // 1.0
	VPXORQ       Z14, Z14, Z14            // +0
	MOVL         $0xff, AX
	KMOVB        AX, K1                   // every lane of a full block

loop:
	CMPQ CX, $8
	JLT  tail

block:
	VMOVUPD.Z (BX), K1, Z0        // grad
	VMOVUPD.Z (DX), K1, Z1        // prev
	VMOVUPD.Z (SI), K1, Z2        // step
	VMOVUPD.Z (DI), K1, Z3        // p
	VMULPD    Z1, Z0, Z1          // sign = grad·prev
	VCMPPD    $0x1e, Z14, Z1, K2  // grow: sign > 0 (GT_OQ)
	VCMPPD    $0x11, Z14, Z1, K3  // shrink: sign < 0 (LT_OQ)
	KNOTB     K3, K4              // move: the rest, NaN signs included
	VMULPD    Z8, Z2, Z4
	VMINPD    Z11, Z4, Z4         // min(step·etaPlus, stepMax)
	VMULPD    Z9, Z2, Z5
	VMAXPD    Z10, Z5, Z5         // max(step·etaMinus, stepMin)
	VMOVAPD   Z4, K2, Z2
	VMOVAPD   Z5, K3, Z2
	VCMPPD    $0x0c, Z14, Z0, K5  // grad ≠ 0, NaN excluded (NEQ_OQ)
	VANDPD    Z12, Z0, Z6
	VORPD.Z   Z13, Z6, K5, Z6     // sgn(grad): ±1 by grad's sign bit, else +0
	VMULPD    Z2, Z6, Z6          // sgn(grad)·step
	VSUBPD    Z6, Z3, K4, Z3      // p − sgn(grad)·step, where it moves
	VMOVAPD.Z Z0, K4, Z1          // prev: grad where it moves, else +0
	VMOVUPD   Z2, K1, (SI)
	VMOVUPD   Z3, K1, (DI)
	VMOVUPD   Z1, K1, (DX)
	ADDQ      $64, BX
	ADDQ      $64, DX
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	JMP       loop

tail:
	TESTQ CX, CX
	JZ    done
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVB AX, K1                  // the first CX lanes
	MOVQ  $8, CX                  // one more block, then done
	JMP   block

done:
	VZEROUPPER
	RET
