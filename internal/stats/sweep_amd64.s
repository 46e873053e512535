#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func sweepAVX2(dst []KeyIdx, pts [][]float64, mu, l, z []float64) int
//
// Rows go eight at a time, as two groups of four whose solves interleave,
// so two chains of dependent divisions are in flight. Lane j of a group's
// register belongs to row j of the group. For each i the group's
// s = x[i] - mu[i]; then s -= L[i][k] * z[k] for k from 0 up, one VMULPD
// and one VSUBPD a term; then z[i] = s / L[i][i]; and the norm adds
// z[i]*z[i] to a sum that starts at zero. Those are MahalanobisSq's
// operations in its order, unfused, so each lane's key is the one-point
// key bit for bit. z[i] of the first group sits at z+64i, of the second
// at z+64i+32.
//
// DI dst, SI the rows' headers, R8 mu, R9 L, R10 z, R11 p, R15 8p,
// R12 rows in whole pairs of groups, R13 the first row of the pair.
TEXT ·sweepAVX2(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ pts_base+24(FP), SI
	MOVQ pts_len+32(FP), R12
	ANDQ $-8, R12
	MOVQ mu_base+48(FP), R8
	MOVQ mu_len+56(FP), R11
	MOVQ l_base+72(FP), R9
	MOVQ z_base+96(FP), R10
	LEAQ (R11*8), R15
	XORQ R13, R13

pair:
	CMPQ R13, R12
	JGE  done
	// Every row of the pair is at least p long.
	XORQ BX, BX

check:
	CMPQ 8(SI)(BX*1), R11
	JLT  done
	ADDQ $24, BX
	CMPQ BX, $192
	JLT  check

	// z[i] = x[i] - mu[i], a lane per row, for each group; R14 = 8i.
	MOVQ 0(SI), AX
	MOVQ 24(SI), BX
	MOVQ 48(SI), CX
	MOVQ 72(SI), DX
	XORQ R14, R14

gatherA:
	CMPQ         R14, R15
	JGE          gatherAdone
	VMOVSD       (AX)(R14*1), X0
	VMOVHPD      (BX)(R14*1), X0, X0
	VMOVSD       (CX)(R14*1), X1
	VMOVHPD      (DX)(R14*1), X1, X1
	VINSERTF128  $1, X1, Y0, Y0
	VBROADCASTSD (R8)(R14*1), Y1
	VSUBPD       Y1, Y0, Y0
	VMOVUPD      Y0, (R10)(R14*8)
	ADDQ         $8, R14
	JMP          gatherA

gatherAdone:
	MOVQ 96(SI), AX
	MOVQ 120(SI), BX
	MOVQ 144(SI), CX
	MOVQ 168(SI), DX
	XORQ R14, R14

gatherB:
	CMPQ         R14, R15
	JGE          gatherBdone
	VMOVSD       (AX)(R14*1), X0
	VMOVHPD      (BX)(R14*1), X0, X0
	VMOVSD       (CX)(R14*1), X1
	VMOVHPD      (DX)(R14*1), X1, X1
	VINSERTF128  $1, X1, Y0, Y0
	VBROADCASTSD (R8)(R14*1), Y1
	VSUBPD       Y1, Y0, Y0
	VMOVUPD      Y0, 32(R10)(R14*8)
	ADDQ         $8, R14
	JMP          gatherB

gatherBdone:

	// Y7 and Y8 hold the groups' norms, AX row i of L, R14 = 8i, BX = 8k.
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	MOVQ   R9, AX
	XORQ   R14, R14

row:
	CMPQ    R14, R15
	JGE     store
	VMOVUPD (R10)(R14*8), Y0
	VMOVUPD 32(R10)(R14*8), Y2
	XORQ    BX, BX

term:
	CMPQ         BX, R14
	JGE          pivot
	VBROADCASTSD (AX)(BX*1), Y1
	VMULPD       (R10)(BX*8), Y1, Y3
	VMULPD       32(R10)(BX*8), Y1, Y1
	VSUBPD       Y3, Y0, Y0
	VSUBPD       Y1, Y2, Y2
	ADDQ         $8, BX
	JMP          term

pivot:
	VBROADCASTSD (AX)(R14*1), Y1
	VDIVPD       Y1, Y0, Y0
	VDIVPD       Y1, Y2, Y2
	VMOVUPD      Y0, (R10)(R14*8)
	VMOVUPD      Y2, 32(R10)(R14*8)
	VMULPD       Y0, Y0, Y1
	VMULPD       Y2, Y2, Y3
	VADDPD       Y1, Y7, Y7
	VADDPD       Y3, Y8, Y8
	ADDQ         R15, AX
	ADDQ         $8, R14
	JMP          row

store:
	// dst[r+j] = KeyIdx{norm j, r+j}.
	MOVQ         R13, BX
	VEXTRACTF128 $1, Y7, X6
	VMOVSD       X7, 0(DI)
	MOVQ         BX, 8(DI)
	INCQ         BX
	VMOVHPD      X7, 16(DI)
	MOVQ         BX, 24(DI)
	INCQ         BX
	VMOVSD       X6, 32(DI)
	MOVQ         BX, 40(DI)
	INCQ         BX
	VMOVHPD      X6, 48(DI)
	MOVQ         BX, 56(DI)
	INCQ         BX
	VEXTRACTF128 $1, Y8, X6
	VMOVSD       X8, 64(DI)
	MOVQ         BX, 72(DI)
	INCQ         BX
	VMOVHPD      X8, 80(DI)
	MOVQ         BX, 88(DI)
	INCQ         BX
	VMOVSD       X6, 96(DI)
	MOVQ         BX, 104(DI)
	INCQ         BX
	VMOVHPD      X6, 112(DI)
	MOVQ         BX, 120(DI)
	ADDQ         $128, DI
	ADDQ         $192, SI
	ADDQ         $8, R13
	JMP          pair

done:
	VZEROUPPER
	MOVQ R13, ret+120(FP)
	RET
