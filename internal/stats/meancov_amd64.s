#include "textflag.h"

// laneMask is eight all-ones quadwords then eight zero ones: the four
// quadwords at laneMask+8(8-d) are lane l's mask for column l < d, and
// those at laneMask+8(12-d) for column 4+l < d.
DATA laneMask<>+0(SB)/8, $-1
DATA laneMask<>+8(SB)/8, $-1
DATA laneMask<>+16(SB)/8, $-1
DATA laneMask<>+24(SB)/8, $-1
DATA laneMask<>+32(SB)/8, $-1
DATA laneMask<>+40(SB)/8, $-1
DATA laneMask<>+48(SB)/8, $-1
DATA laneMask<>+56(SB)/8, $-1
DATA laneMask<>+64(SB)/8, $0
DATA laneMask<>+72(SB)/8, $0
DATA laneMask<>+80(SB)/8, $0
DATA laneMask<>+88(SB)/8, $0
DATA laneMask<>+96(SB)/8, $0
DATA laneMask<>+104(SB)/8, $0
DATA laneMask<>+112(SB)/8, $0
DATA laneMask<>+120(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $128

// func meanSumAVX2(sum *[8]float64, pts [][]float64, idx []int, d int) bool
//
// Lane j of Y0 (columns 0-3) and Y1 (columns 4-7) sums column j of the
// rows pts[idx[t]], t from 0 up, from +0: sum += row, one VADDPD a row,
// MeanCovInto's Go sum in its order. Lanes past d load as zero
// (VMASKMOVPD) and touch no memory. Before a row is read its index is
// checked against len(pts) and its length against d; on a failure it
// returns false with sum untouched.
//
// DI sum, SI the rows' headers, R8 len(pts), R9 idx, R10 len(idx),
// R11 d, CX t; Y14 and Y15 the two halves' lane masks.
TEXT ·meanSumAVX2(SB), NOSPLIT, $0-65
	MOVQ sum+0(FP), DI
	MOVQ pts_base+8(FP), SI
	MOVQ pts_len+16(FP), R8
	MOVQ idx_base+32(FP), R9
	MOVQ idx_len+40(FP), R10
	MOVQ d+56(FP), R11
	LEAQ laneMask<>(SB), AX
	MOVQ $8, BX
	SUBQ R11, BX
	VMOVDQU (AX)(BX*8), Y14
	VMOVDQU 32(AX)(BX*8), Y15
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	XORQ    CX, CX

meanRow:
	CMPQ       CX, R10
	JGE        meanDone
	MOVQ       (R9)(CX*8), AX
	CMPQ       AX, R8
	JAE        meanFail      // unsigned: also a negative index
	LEAQ       (AX)(AX*2), AX
	CMPQ       8(SI)(AX*8), R11
	JLT        meanFail
	MOVQ       (SI)(AX*8), BX
	VMASKMOVPD (BX), Y14, Y2
	VMASKMOVPD 32(BX), Y15, Y3
	VADDPD     Y2, Y0, Y0
	VADDPD     Y3, Y1, Y1
	INCQ       CX
	JMP        meanRow

meanDone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	MOVB    $1, ret+64(FP)
	RET

meanFail:
	VZEROUPPER
	MOVB $0, ret+64(FP)
	RET

// func covSumAVX2(acc *[64]float64, pts [][]float64, idx []int, mean *[8]float64, d int)
//
// For each row pts[idx[t]], t from 0 up, the centred row c = row - mean
// sits in Y12 (columns 0-3) and Y13 (columns 4-7), lanes past d zero.
// An accumulator's lanes are the cells (j, k..k+3): VPERMPD broadcasts
// c_j, a VMULPD forms c_j*c_k and a VADDPD adds it to the accumulator,
// which starts at +0 — never fused, each cell's products in row order,
// as MeanCovInto's Go sum adds them. Cell (j, k) ends in acc[8j+k]; the
// caller reads the upper triangle. meanSumAVX2 has checked every index
// and row length.
//
// d <= 4 keeps cells (0-3, 0-3) in Y0-Y3 and the lane mask in Y13.
// d > 4 keeps (0-3, 0-3) in Y0-Y3, (0-3, 4-7) in Y4-Y7 and (4-7, 4-7) in
// Y8-Y11, the twelve that cover the upper triangle, loads columns 0-3
// whole and reloads the columns-4-7 mask into Y15 a row. Y14 is the
// broadcast, Y15 the product.
//
// DI acc, SI the rows' headers, R9 idx, R10 len(idx), R8 mean, R12 the
// lane masks (laneMask+8(8-d)), CX t.
TEXT ·covSumAVX2(SB), NOSPLIT, $0-72
	MOVQ   acc+0(FP), DI
	MOVQ   pts_base+8(FP), SI
	MOVQ   idx_base+32(FP), R9
	MOVQ   idx_len+40(FP), R10
	MOVQ   mean+56(FP), R8
	MOVQ   d+64(FP), R11
	LEAQ   laneMask<>(SB), R12
	MOVQ   $8, BX
	SUBQ   R11, BX
	LEAQ   (R12)(BX*8), R12
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   CX, CX
	CMPQ   R11, $4
	JGT    wide
	VMOVDQU (R12), Y13

narrowRow:
	CMPQ       CX, R10
	JGE        narrowDone
	MOVQ       (R9)(CX*8), AX
	LEAQ       (AX)(AX*2), AX
	MOVQ       (SI)(AX*8), BX
	VMASKMOVPD (BX), Y13, Y12
	VSUBPD     (R8), Y12, Y12
	VPERMPD    $0x00, Y12, Y14
	VMULPD     Y12, Y14, Y15
	VADDPD     Y15, Y0, Y0
	VPERMPD    $0x55, Y12, Y14
	VMULPD     Y12, Y14, Y15
	VADDPD     Y15, Y1, Y1
	VPERMPD    $0xAA, Y12, Y14
	VMULPD     Y12, Y14, Y15
	VADDPD     Y15, Y2, Y2
	VPERMPD    $0xFF, Y12, Y14
	VMULPD     Y12, Y14, Y15
	VADDPD     Y15, Y3, Y3
	INCQ       CX
	JMP        narrowRow

narrowDone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 64(DI)
	VMOVUPD Y2, 128(DI)
	VMOVUPD Y3, 192(DI)
	VZEROUPPER
	RET

wide:
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

wideRow:
	CMPQ       CX, R10
	JGE        wideDone
	MOVQ       (R9)(CX*8), AX
	LEAQ       (AX)(AX*2), AX
	MOVQ       (SI)(AX*8), BX
	VMOVUPD    (BX), Y12
	VMOVDQU    32(R12), Y15
	VMASKMOVPD 32(BX), Y15, Y13
	VSUBPD     (R8), Y12, Y12
	VSUBPD     32(R8), Y13, Y13
	VPERMPD    $0x00, Y12, Y14
	VMULPD     Y12, Y14, Y15
	VADDPD     Y15, Y0, Y0
	VMULPD     Y13, Y14, Y15
	VADDPD     Y15, Y4, Y4
	VPERMPD    $0x55, Y12, Y14
	VMULPD     Y12, Y14, Y15
	VADDPD     Y15, Y1, Y1
	VMULPD     Y13, Y14, Y15
	VADDPD     Y15, Y5, Y5
	VPERMPD    $0xAA, Y12, Y14
	VMULPD     Y12, Y14, Y15
	VADDPD     Y15, Y2, Y2
	VMULPD     Y13, Y14, Y15
	VADDPD     Y15, Y6, Y6
	VPERMPD    $0xFF, Y12, Y14
	VMULPD     Y12, Y14, Y15
	VADDPD     Y15, Y3, Y3
	VMULPD     Y13, Y14, Y15
	VADDPD     Y15, Y7, Y7
	VPERMPD    $0x00, Y13, Y14
	VMULPD     Y13, Y14, Y15
	VADDPD     Y15, Y8, Y8
	VPERMPD    $0x55, Y13, Y14
	VMULPD     Y13, Y14, Y15
	VADDPD     Y15, Y9, Y9
	VPERMPD    $0xAA, Y13, Y14
	VMULPD     Y13, Y14, Y15
	VADDPD     Y15, Y10, Y10
	VPERMPD    $0xFF, Y13, Y14
	VMULPD     Y13, Y14, Y15
	VADDPD     Y15, Y11, Y11
	INCQ       CX
	JMP        wideRow

wideDone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y4, 32(DI)
	VMOVUPD Y1, 64(DI)
	VMOVUPD Y5, 96(DI)
	VMOVUPD Y2, 128(DI)
	VMOVUPD Y6, 160(DI)
	VMOVUPD Y3, 192(DI)
	VMOVUPD Y7, 224(DI)
	VMOVUPD Y8, 288(DI)
	VMOVUPD Y9, 352(DI)
	VMOVUPD Y10, 416(DI)
	VMOVUPD Y11, 480(DI)
	VZEROUPPER
	RET
