#include "textflag.h"

// AVX kernels behind MulTransBiasInto, MulInto and GradAccumInto. Each lane
// of a YMM register holds a different output element and performs exactly
// the Go kernel's operations on it, in the same order: a separate VMULPD
// and VADDPD per term (no FMA), one accumulator per output, ascending
// reduction index. So every lane carries the Go kernel's bits (DESIGN.md
// §13). Partial blocks run under a lane mask: masked loads read nothing
// and masked stores write nothing outside the valid lanes.

// laneMask: the mask of the first c lanes is the 4 words at +32-8c.
DATA laneMask<>+0(SB)/8, $-1
DATA laneMask<>+8(SB)/8, $-1
DATA laneMask<>+16(SB)/8, $-1
DATA laneMask<>+24(SB)/8, $-1
DATA laneMask<>+32(SB)/8, $0
DATA laneMask<>+40(SB)/8, $0
DATA laneMask<>+48(SB)/8, $0
DATA laneMask<>+56(SB)/8, $0
GLOBL laneMask<>(SB), RODATA, $64

// LANEMASK loads into y the mask of the first n lanes, 0 <= n <= 4; it
// clobbers n and tab.
#define LANEMASK(n, tab, y) \
	NEGQ    n; \
	LEAQ    laneMask<>+32(SB), tab; \
	VMOVUPD (tab)(n*8), y

// ROW adds a·w to acc: a broadcast from src, w in Y4.
#define ROW(src, acc, t) \
	VBROADCASTSD src, t; \
	VMULPD       Y4, t, t; \
	VADDPD       t, acc, acc

// ROWSKIP is ROW with MulInto's exact-zero skip: the product is ANDed with
// the mask a != 0 (NEQ_UQ, so a NaN a is kept). A skipped term adds +0,
// which leaves the accumulator unchanged: it starts at +0 and, rounding to
// nearest, never becomes −0.
#define ROWSKIP(src, acc, t, m) \
	VBROADCASTSD src, t; \
	VCMPPD       $4, Y10, t, m; \
	VMULPD       Y4, t, t; \
	VANDPD       m, t, t; \
	VADDPD       t, acc, acc

// func mulRowsAVX(dst *float64, dstRow int, a *float64, rows, k int, w *float64, wRow int, seed *float64, lanes int, skipZero bool)
//
// For every row i < rows and lane l < lanes it computes
// dst[i·dstRow+l] = seed[l] + Σₖ a[i·k+kk]·w[kk·wRow+l], ascending kk,
// skipping exact-zero a terms when skipZero is set; it reads seed[:4].
// Rows go 4 at a time (4 accumulators), then one at a time.
TEXT ·mulRowsAVX(SB), NOSPLIT, $0-73
	MOVQ    lanes+64(FP), AX
	LANEMASK(AX, CX, Y9)
	MOVQ    seed+56(FP), AX
	VMOVUPD (AX), Y8
	VXORPD  Y10, Y10, Y10
	MOVQ    dst+0(FP), DI
	MOVQ    dstRow+8(FP), R8
	SHLQ    $3, R8
	MOVQ    a+16(FP), SI
	MOVQ    rows+24(FP), BX
	MOVQ    k+32(FP), DX
	MOVQ    DX, R10
	SHLQ    $3, R10              // a's row stride in bytes
	LEAQ    (R10)(R10*2), R11
	MOVQ    w+40(FP), R12
	MOVQ    wRow+48(FP), R13
	SHLQ    $3, R13

block4:
	CMPQ    BX, $4
	JLT     single
	VMOVAPD Y8, Y0
	VMOVAPD Y8, Y1
	VMOVAPD Y8, Y2
	VMOVAPD Y8, Y3
	MOVQ    SI, AX
	MOVQ    R12, R9
	MOVQ    DX, CX
	TESTQ   CX, CX
	JZ      store4
	CMPB    skipZero+72(FP), $0
	JNE     loop4skip

loop4:
	VMASKMOVPD (R9), Y9, Y4
	ROW((AX), Y0, Y5)
	ROW((AX)(R10*1), Y1, Y6)
	ROW((AX)(R10*2), Y2, Y7)
	ROW((AX)(R11*1), Y3, Y5)
	ADDQ       $8, AX
	ADDQ       R13, R9
	DECQ       CX
	JNZ        loop4
	JMP        store4

loop4skip:
	VMASKMOVPD (R9), Y9, Y4
	ROWSKIP((AX), Y0, Y5, Y11)
	ROWSKIP((AX)(R10*1), Y1, Y6, Y12)
	ROWSKIP((AX)(R10*2), Y2, Y7, Y13)
	ROWSKIP((AX)(R11*1), Y3, Y5, Y11)
	ADDQ       $8, AX
	ADDQ       R13, R9
	DECQ       CX
	JNZ        loop4skip

store4:
	VMASKMOVPD Y0, Y9, (DI)
	VMASKMOVPD Y1, Y9, (DI)(R8*1)
	VMASKMOVPD Y2, Y9, (DI)(R8*2)
	LEAQ       (DI)(R8*2), AX
	VMASKMOVPD Y3, Y9, (AX)(R8*1)
	LEAQ       (SI)(R10*4), SI
	LEAQ       (DI)(R8*4), DI
	SUBQ       $4, BX
	JMP        block4

single:
	TESTQ   BX, BX
	JZ      done
	VMOVAPD Y8, Y0
	MOVQ    SI, AX
	MOVQ    R12, R9
	MOVQ    DX, CX
	TESTQ   CX, CX
	JZ      store1
	CMPB    skipZero+72(FP), $0
	JNE     loop1skip

loop1:
	VMASKMOVPD (R9), Y9, Y4
	ROW((AX), Y0, Y5)
	ADDQ       $8, AX
	ADDQ       R13, R9
	DECQ       CX
	JNZ        loop1
	JMP        store1

loop1skip:
	VMASKMOVPD (R9), Y9, Y4
	ROWSKIP((AX), Y0, Y5, Y11)
	ADDQ       $8, AX
	ADDQ       R13, R9
	DECQ       CX
	JNZ        loop1skip

store1:
	VMASKMOVPD Y0, Y9, (DI)
	ADDQ       R10, SI
	ADDQ       R8, DI
	DECQ       BX
	JMP        single

done:
	VZEROUPPER // the caller's SSE code would otherwise pay a state transition
	RET

// GRADX adds scale·(d·x) to acc: x in Y9, d broadcast from dsrc, scale
// in Y8.
#define GRADX(dsrc, acc) \
	VBROADCASTSD dsrc, Y10; \
	VMULPD       Y9, Y10, Y10; \
	VMULPD       Y8, Y10, Y10; \
	VADDPD       Y10, acc, acc

// GRAD is GRADX with x loaded from xsrc under mask m.
#define GRAD(xsrc, dsrc, m, acc) \
	VMASKMOVPD xsrc, m, Y9; \
	GRADX(dsrc, acc)

// func gradAccumAVX(dw *float64, dwStep int, d *float64, dStep int, x *float64, xStep int, rows, dRow, xRow int, scale float64, l0, l1, l2, l3, accs int)
//
// Runs accumulators a < accs over rows r ascending, 1 <= accs <= 4 and la
// = 0 for the others. Accumulator a holds the la lanes of dw at
// dw+a·dwStep and adds scale·(d·x), d = d[a·dStep+r·dRow] broadcast and x
// the la lanes at x+a·xStep+r·xRow. A block of 4 outputs × 4 inputs has
// dStep 1, xStep 0 and accs 4; one output × up to 16 inputs has dStep 0,
// xStep 4 and an accumulator per 4 inputs. Steps and row strides are in
// elements.
TEXT ·gradAccumAVX(SB), NOSPLIT, $0-120
	MOVQ l0+80(FP), AX
	LANEMASK(AX, CX, Y4)
	MOVQ l1+88(FP), AX
	LANEMASK(AX, CX, Y5)
	MOVQ l2+96(FP), AX
	LANEMASK(AX, CX, Y6)
	MOVQ l3+104(FP), AX
	LANEMASK(AX, CX, Y7)
	VBROADCASTSD scale+72(FP), Y8
	MOVQ dw+0(FP), DI
	MOVQ dwStep+8(FP), BX
	SHLQ $3, BX
	LEAQ (DI)(BX*2), AX
	VMASKMOVPD (DI), Y4, Y0
	VMASKMOVPD (DI)(BX*1), Y5, Y1
	VMASKMOVPD (AX), Y6, Y2
	VMASKMOVPD (AX)(BX*1), Y7, Y3
	MOVQ d+16(FP), SI
	MOVQ dStep+24(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	MOVQ x+32(FP), DX
	MOVQ xStep+40(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	MOVQ rows+48(FP), CX
	MOVQ dRow+56(FP), R12
	SHLQ $3, R12
	MOVQ xRow+64(FP), R13
	SHLQ $3, R13
	TESTQ CX, CX
	JZ   gradstore
	TESTQ R10, R10
	JZ   gradloop4x4
	MOVQ accs+112(FP), AX
	CMPQ AX, $2
	JLT  gradloop1
	JEQ  gradloop2
	CMPQ AX, $3
	JEQ  gradloop3

gradloop:
	GRAD((DX), (SI), Y4, Y0)
	GRAD((DX)(R10*1), (SI)(R8*1), Y5, Y1)
	GRAD((DX)(R10*2), (SI)(R8*2), Y6, Y2)
	GRAD((DX)(R11*1), (SI)(R9*1), Y7, Y3)
	ADDQ R12, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  gradloop
	JMP  gradstore

gradloop3:
	GRAD((DX), (SI), Y4, Y0)
	GRAD((DX)(R10*1), (SI)(R8*1), Y5, Y1)
	GRAD((DX)(R10*2), (SI)(R8*2), Y6, Y2)
	ADDQ R12, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  gradloop3
	JMP  gradstore

gradloop2:
	GRAD((DX), (SI), Y4, Y0)
	GRAD((DX)(R10*1), (SI)(R8*1), Y5, Y1)
	ADDQ R12, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  gradloop2
	JMP  gradstore

gradloop1:
	GRAD((DX), (SI), Y4, Y0)
	ADDQ R12, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  gradloop1
	JMP  gradstore

gradloop4x4: // xStep 0: the 4 accumulators share one x load
	VMASKMOVPD (DX), Y4, Y9
	GRADX((SI), Y0)
	GRADX((SI)(R8*1), Y1)
	GRADX((SI)(R8*2), Y2)
	GRADX((SI)(R9*1), Y3)
	ADDQ R12, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  gradloop4x4

gradstore:
	LEAQ       (DI)(BX*2), AX
	VMASKMOVPD Y0, Y4, (DI)
	VMASKMOVPD Y1, Y5, (DI)(BX*1)
	VMASKMOVPD Y2, Y6, (AX)
	VMASKMOVPD Y3, Y7, (AX)(BX*1)
	VZEROUPPER
	RET

// BIAS adds scale·d to acc, d the lanes at dsrc under mask m.
#define BIAS(dsrc, m, acc) \
	VMASKMOVPD dsrc, m, Y9; \
	VMULPD     Y8, Y9, Y9; \
	VADDPD     Y9, acc, acc

// func biasAccumAVX(db *float64, d *float64, rows, dRow int, scale float64, l0, l1, l2, l3, accs int)
//
// db[i] += scale·d[r·dRow+i] over rows r ascending, for up to 16
// consecutive outputs i in accumulators a < accs of la lanes each, 1 <=
// accs <= 4 and la = 0 for the others. dRow is in elements.
TEXT ·biasAccumAVX(SB), NOSPLIT, $0-80
	MOVQ l0+40(FP), AX
	LANEMASK(AX, CX, Y4)
	MOVQ l1+48(FP), AX
	LANEMASK(AX, CX, Y5)
	MOVQ l2+56(FP), AX
	LANEMASK(AX, CX, Y6)
	MOVQ l3+64(FP), AX
	LANEMASK(AX, CX, Y7)
	VBROADCASTSD scale+32(FP), Y8
	MOVQ db+0(FP), DI
	VMASKMOVPD (DI), Y4, Y0
	VMASKMOVPD 32(DI), Y5, Y1
	VMASKMOVPD 64(DI), Y6, Y2
	VMASKMOVPD 96(DI), Y7, Y3
	MOVQ d+8(FP), SI
	MOVQ rows+16(FP), CX
	MOVQ dRow+24(FP), R8
	SHLQ $3, R8
	TESTQ CX, CX
	JZ   biasstore
	MOVQ accs+72(FP), AX
	CMPQ AX, $2
	JLT  biasloop1
	JEQ  biasloop2
	CMPQ AX, $3
	JEQ  biasloop3

biasloop:
	BIAS((SI), Y4, Y0)
	BIAS(32(SI), Y5, Y1)
	BIAS(64(SI), Y6, Y2)
	BIAS(96(SI), Y7, Y3)
	ADDQ R8, SI
	DECQ CX
	JNZ  biasloop
	JMP  biasstore

biasloop3:
	BIAS((SI), Y4, Y0)
	BIAS(32(SI), Y5, Y1)
	BIAS(64(SI), Y6, Y2)
	ADDQ R8, SI
	DECQ CX
	JNZ  biasloop3
	JMP  biasstore

biasloop2:
	BIAS((SI), Y4, Y0)
	BIAS(32(SI), Y5, Y1)
	ADDQ R8, SI
	DECQ CX
	JNZ  biasloop2
	JMP  biasstore

biasloop1:
	BIAS((SI), Y4, Y0)
	ADDQ R8, SI
	DECQ CX
	JNZ  biasloop1

biasstore:
	VMASKMOVPD Y0, Y4, (DI)
	VMASKMOVPD Y1, Y5, 32(DI)
	VMASKMOVPD Y2, Y6, 64(DI)
	VMASKMOVPD Y3, Y7, 96(DI)
	VZEROUPPER
	RET

// The AVX-512 kernels below are the same kernels eight lanes wide: one
// output element per ZMM lane, the same operations in the same order, with
// opmask registers in place of the lane masks. A masked load reads nothing
// and a masked store writes nothing outside the valid lanes.

// LANEMASK8 sets k to the mask of the first CX lanes, 0 <= CX <= 8; it
// clobbers AX.
#define LANEMASK8(k) \
	MOVL  $1, AX; \
	SHLL  CX, AX; \
	DECL  AX; \
	KMOVB AX, k

// ZROW adds a·w to acc: a broadcast from src, w in Z4.
#define ZROW(src, acc, t) \
	VBROADCASTSD src, t; \
	VMULPD       Z4, t, t; \
	VADDPD       t, acc, acc

// ZROWSKIP is ZROW with MulInto's exact-zero skip: the add runs under the
// mask a != 0 (NEQ_UQ, so a NaN a is kept), and a skipped term leaves the
// accumulator as it was, as the Go kernel's skip does.
#define ZROWSKIP(src, acc, t) \
	VBROADCASTSD src, t; \
	VCMPPD       $4, Z10, t, K2; \
	VMULPD       Z4, t, t; \
	VADDPD       t, acc, K2, acc

// func mulRowsAVX512(dst *float64, dstRow int, a *float64, rows, k int, w *float64, wRow int, seed *float64, lanes int, skipZero bool)
//
// mulRowsAVX's contract, 0 < lanes <= 8 and seed[:lanes].
TEXT ·mulRowsAVX512(SB), NOSPLIT, $0-73
	MOVQ    lanes+64(FP), CX
	LANEMASK8(K1)
	MOVQ    seed+56(FP), AX
	VMOVUPD.Z (AX), K1, Z8
	VPXORQ  Z10, Z10, Z10
	MOVQ    dst+0(FP), DI
	MOVQ    dstRow+8(FP), R8
	SHLQ    $3, R8
	MOVQ    a+16(FP), SI
	MOVQ    rows+24(FP), BX
	MOVQ    k+32(FP), DX
	MOVQ    DX, R10
	SHLQ    $3, R10              // a's row stride in bytes
	LEAQ    (R10)(R10*2), R11
	MOVQ    w+40(FP), R12
	MOVQ    wRow+48(FP), R13
	SHLQ    $3, R13

block4:
	CMPQ    BX, $4
	JLT     single
	VMOVAPD Z8, Z0
	VMOVAPD Z8, Z1
	VMOVAPD Z8, Z2
	VMOVAPD Z8, Z3
	MOVQ    SI, AX
	MOVQ    R12, R9
	MOVQ    DX, CX
	TESTQ   CX, CX
	JZ      store4
	CMPB    skipZero+72(FP), $0
	JNE     loop4skip

loop4:
	VMOVUPD.Z (R9), K1, Z4
	ZROW((AX), Z0, Z5)
	ZROW((AX)(R10*1), Z1, Z6)
	ZROW((AX)(R10*2), Z2, Z7)
	ZROW((AX)(R11*1), Z3, Z5)
	ADDQ      $8, AX
	ADDQ      R13, R9
	DECQ      CX
	JNZ       loop4
	JMP       store4

loop4skip:
	VMOVUPD.Z (R9), K1, Z4
	ZROWSKIP((AX), Z0, Z5)
	ZROWSKIP((AX)(R10*1), Z1, Z6)
	ZROWSKIP((AX)(R10*2), Z2, Z7)
	ZROWSKIP((AX)(R11*1), Z3, Z5)
	ADDQ      $8, AX
	ADDQ      R13, R9
	DECQ      CX
	JNZ       loop4skip

store4:
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K1, (DI)(R8*1)
	VMOVUPD Z2, K1, (DI)(R8*2)
	LEAQ    (DI)(R8*2), AX
	VMOVUPD Z3, K1, (AX)(R8*1)
	LEAQ    (SI)(R10*4), SI
	LEAQ    (DI)(R8*4), DI
	SUBQ    $4, BX
	JMP     block4

single:
	TESTQ   BX, BX
	JZ      done
	VMOVAPD Z8, Z0
	MOVQ    SI, AX
	MOVQ    R12, R9
	MOVQ    DX, CX
	TESTQ   CX, CX
	JZ      store1
	CMPB    skipZero+72(FP), $0
	JNE     loop1skip

loop1:
	VMOVUPD.Z (R9), K1, Z4
	ZROW((AX), Z0, Z5)
	ADDQ      $8, AX
	ADDQ      R13, R9
	DECQ      CX
	JNZ       loop1
	JMP       store1

loop1skip:
	VMOVUPD.Z (R9), K1, Z4
	ZROWSKIP((AX), Z0, Z5)
	ADDQ      $8, AX
	ADDQ      R13, R9
	DECQ      CX
	JNZ       loop1skip

store1:
	VMOVUPD Z0, K1, (DI)
	ADDQ    R10, SI
	ADDQ    R8, DI
	DECQ    BX
	JMP     single

done:
	VZEROUPPER
	RET

// ZGRADX adds scale·(d·x) to acc: x in Z9, d broadcast from dsrc, scale
// in Z8.
#define ZGRADX(dsrc, acc) \
	VBROADCASTSD dsrc, Z10; \
	VMULPD       Z9, Z10, Z10; \
	VMULPD       Z8, Z10, Z10; \
	VADDPD       Z10, acc, acc

// ZGRAD is ZGRADX with x loaded from xsrc under mask k.
#define ZGRAD(xsrc, dsrc, k, acc) \
	VMOVUPD.Z xsrc, k, Z9; \
	ZGRADX(dsrc, acc)

// func gradAccumAVX512(dw *float64, dwStep int, d *float64, dStep int, x *float64, xStep int, rows, dRow, xRow int, scale float64, l0, l1, l2, l3, accs int)
//
// gradAccumAVX's contract with up to 8 lanes per accumulator: a block of 4
// outputs × 8 inputs has dStep 1, xStep 0 and accs 4; one output × up to
// 32 inputs has dStep 0, xStep 8 and an accumulator per 8 inputs.
TEXT ·gradAccumAVX512(SB), NOSPLIT, $0-120
	MOVQ l0+80(FP), CX
	LANEMASK8(K1)
	MOVQ l1+88(FP), CX
	LANEMASK8(K2)
	MOVQ l2+96(FP), CX
	LANEMASK8(K3)
	MOVQ l3+104(FP), CX
	LANEMASK8(K4)
	VBROADCASTSD scale+72(FP), Z8
	MOVQ dw+0(FP), DI
	MOVQ dwStep+8(FP), BX
	SHLQ $3, BX
	LEAQ (DI)(BX*2), AX
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z (DI)(BX*1), K2, Z1
	VMOVUPD.Z (AX), K3, Z2
	VMOVUPD.Z (AX)(BX*1), K4, Z3
	MOVQ d+16(FP), SI
	MOVQ dStep+24(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	MOVQ x+32(FP), DX
	MOVQ xStep+40(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	MOVQ rows+48(FP), CX
	MOVQ dRow+56(FP), R12
	SHLQ $3, R12
	MOVQ xRow+64(FP), R13
	SHLQ $3, R13
	TESTQ CX, CX
	JZ   gradstore
	TESTQ R10, R10
	JZ   gradloop4x8
	MOVQ accs+112(FP), AX
	CMPQ AX, $2
	JLT  gradloop1
	JEQ  gradloop2
	CMPQ AX, $3
	JEQ  gradloop3

gradloop:
	ZGRAD((DX), (SI), K1, Z0)
	ZGRAD((DX)(R10*1), (SI)(R8*1), K2, Z1)
	ZGRAD((DX)(R10*2), (SI)(R8*2), K3, Z2)
	ZGRAD((DX)(R11*1), (SI)(R9*1), K4, Z3)
	ADDQ R12, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  gradloop
	JMP  gradstore

gradloop3:
	ZGRAD((DX), (SI), K1, Z0)
	ZGRAD((DX)(R10*1), (SI)(R8*1), K2, Z1)
	ZGRAD((DX)(R10*2), (SI)(R8*2), K3, Z2)
	ADDQ R12, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  gradloop3
	JMP  gradstore

gradloop2:
	ZGRAD((DX), (SI), K1, Z0)
	ZGRAD((DX)(R10*1), (SI)(R8*1), K2, Z1)
	ADDQ R12, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  gradloop2
	JMP  gradstore

gradloop1:
	ZGRAD((DX), (SI), K1, Z0)
	ADDQ R12, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  gradloop1
	JMP  gradstore

gradloop4x8: // xStep 0: the 4 accumulators share one x load
	VMOVUPD.Z (DX), K1, Z9
	ZGRADX((SI), Z0)
	ZGRADX((SI)(R8*1), Z1)
	ZGRADX((SI)(R8*2), Z2)
	ZGRADX((SI)(R9*1), Z3)
	ADDQ R12, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  gradloop4x8

gradstore:
	LEAQ    (DI)(BX*2), AX
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K2, (DI)(BX*1)
	VMOVUPD Z2, K3, (AX)
	VMOVUPD Z3, K4, (AX)(BX*1)
	VZEROUPPER
	RET

// ZGRADT adds scale·(d·x) to acc: d in Z9, x broadcast from xsrc, scale
// in Z8. d stays the first factor, as in ZGRADX.
#define ZGRADT(xsrc, acc) \
	VBROADCASTSD xsrc, Z10; \
	VMULPD       Z10, Z9, Z10; \
	VMULPD       Z8, Z10, Z10; \
	VADDPD       Z10, acc, acc

// func gradAccumOutsAVX512(acc *float64, d *float64, x *float64, rows, dRow, xRow int, scale float64, lanes int)
//
// The transposed block for narrow inputs: lanes run over up to 8
// consecutive outputs, and accumulator a over input a of 4 consecutive
// inputs. acc[8a+l] holds dw[o+l][j+a], 32 contiguous values; over rows r
// ascending it adds scale·(d·x), d the lanes at d+r·dRow and x = x[r·xRow+a]
// broadcast. dRow and xRow are in elements.
TEXT ·gradAccumOutsAVX512(SB), NOSPLIT, $0-64
	MOVQ lanes+56(FP), CX
	LANEMASK8(K1)
	VBROADCASTSD scale+48(FP), Z8
	MOVQ    acc+0(FP), DI
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	MOVQ    d+8(FP), SI
	MOVQ    x+16(FP), DX
	MOVQ    rows+24(FP), CX
	MOVQ    dRow+32(FP), R12
	SHLQ    $3, R12
	MOVQ    xRow+40(FP), R13
	SHLQ    $3, R13
	TESTQ   CX, CX
	JZ      outsstore

outsloop:
	VMOVUPD.Z (SI), K1, Z9
	ZGRADT((DX), Z0)
	ZGRADT(8(DX), Z1)
	ZGRADT(16(DX), Z2)
	ZGRADT(24(DX), Z3)
	ADDQ      R12, SI
	ADDQ      R13, DX
	DECQ      CX
	JNZ       outsloop

outsstore:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VZEROUPPER
	RET

// ZBIAS adds scale·d to acc, d the lanes at dsrc under mask k.
#define ZBIAS(dsrc, k, acc) \
	VMOVUPD.Z dsrc, k, Z9; \
	VMULPD    Z8, Z9, Z9; \
	VADDPD    Z9, acc, acc

// func biasAccumAVX512(db *float64, d *float64, rows, dRow int, scale float64, l0, l1, l2, l3, accs int)
//
// biasAccumAVX's contract for up to 32 consecutive outputs in accumulators
// of up to 8 lanes each.
TEXT ·biasAccumAVX512(SB), NOSPLIT, $0-80
	MOVQ l0+40(FP), CX
	LANEMASK8(K1)
	MOVQ l1+48(FP), CX
	LANEMASK8(K2)
	MOVQ l2+56(FP), CX
	LANEMASK8(K3)
	MOVQ l3+64(FP), CX
	LANEMASK8(K4)
	VBROADCASTSD scale+32(FP), Z8
	MOVQ db+0(FP), DI
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z 64(DI), K2, Z1
	VMOVUPD.Z 128(DI), K3, Z2
	VMOVUPD.Z 192(DI), K4, Z3
	MOVQ d+8(FP), SI
	MOVQ rows+16(FP), CX
	MOVQ dRow+24(FP), R8
	SHLQ $3, R8
	TESTQ CX, CX
	JZ   biasstore
	MOVQ accs+72(FP), AX
	CMPQ AX, $2
	JLT  biasloop1
	JEQ  biasloop2
	CMPQ AX, $3
	JEQ  biasloop3

biasloop:
	ZBIAS((SI), K1, Z0)
	ZBIAS(64(SI), K2, Z1)
	ZBIAS(128(SI), K3, Z2)
	ZBIAS(192(SI), K4, Z3)
	ADDQ R8, SI
	DECQ CX
	JNZ  biasloop
	JMP  biasstore

biasloop3:
	ZBIAS((SI), K1, Z0)
	ZBIAS(64(SI), K2, Z1)
	ZBIAS(128(SI), K3, Z2)
	ADDQ R8, SI
	DECQ CX
	JNZ  biasloop3
	JMP  biasstore

biasloop2:
	ZBIAS((SI), K1, Z0)
	ZBIAS(64(SI), K2, Z1)
	ADDQ R8, SI
	DECQ CX
	JNZ  biasloop2
	JMP  biasstore

biasloop1:
	ZBIAS((SI), K1, Z0)
	ADDQ R8, SI
	DECQ CX
	JNZ  biasloop1

biasstore:
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K2, 64(DI)
	VMOVUPD Z2, K3, 128(DI)
	VMOVUPD Z3, K4, 192(DI)
	VZEROUPPER
	RET
