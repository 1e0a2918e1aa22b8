//go:build amd64

#include "textflag.h"

// AVX2 row kernels for the 8-lane batched Pair-HMM sweeps. Each loop
// iteration advances all 8 lanes of one cell with two 4-wide halves
// (byte offsets +0 and +32 of the 64-byte lane stripe). Only VMULPD /
// VADDPD are used — packed IEEE-754 ops that round identically to the
// scalar expressions in align.go — and the expression trees mirror the
// generic Go loops in batch.go operation for operation, so results are
// bit-identical to the scalar kernel. No FMA, anywhere, ever: the
// scalar kernel does not contract, so neither may we.
//
// Register discipline: R14 and X15/Y15 are reserved by the Go internal
// ABI (g and the zero register) and are not touched.

// func forwardRowAVX2(a *fwdRow8)
//
// One forward row, j ascending over [lo, hi]:
//   mm = tmm*fM[i-1][j-1] + tgm*(fX[i-1][j-1]+fY[i-1][j-1]) + rowEntry
//   fm = ps[i][j] * mm
//   fx = q*(tmg*fM[i-1][j] + tgg*fX[i-1][j])
//   fy = q*(tmg*fM[i][j-1] + tgg*fY[i][j-1])
//   rs += (fm + fx) + fy
// The fy term reads the previous iteration's stores (the serial GY
// chain); interleaving 8 lanes is what makes that chain pipelineable.
TEXT ·forwardRowAVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), R8    // outM  = &fM[(cur+lo)*8]
	MOVQ 8(AX), R9    // outX  = &fX[(cur+lo)*8]
	MOVQ 16(AX), R10  // outY  = &fY[(cur+lo)*8]
	MOVQ 24(AX), R11  // ps    = &pstar[(cur+lo)*8]
	MOVQ 32(AX), R12  // prevM = &fM[(prev+lo)*8]
	MOVQ 40(AX), R13  // prevX = &fX[(prev+lo)*8]
	MOVQ 48(AX), R15  // prevY = &fY[(prev+lo)*8]
	MOVQ 56(AX), DI   // rs
	MOVQ 64(AX), CX   // steps
	VBROADCASTSD 72(AX), Y0   // tmm
	VBROADCASTSD 80(AX), Y1   // tgm
	VBROADCASTSD 88(AX), Y2   // tmg
	VBROADCASTSD 96(AX), Y3   // tgg
	VBROADCASTSD 104(AX), Y4  // q
	VBROADCASTSD 112(AX), Y5  // rowEntry
	VMOVUPD (DI), Y6          // rs, lanes 0-3
	VMOVUPD 32(DI), Y7        // rs, lanes 4-7

fwdloop:
	// ---- lanes 0-3 ----
	VMOVUPD -64(R13), Y8      // fX[i-1][j-1]
	VADDPD  -64(R15), Y8, Y8  // + fY[i-1][j-1]
	VMULPD  Y1, Y8, Y8        // tgm*(...)
	VMOVUPD -64(R12), Y9      // fM[i-1][j-1]
	VMULPD  Y0, Y9, Y9        // tmm*fM
	VADDPD  Y8, Y9, Y9
	VADDPD  Y5, Y9, Y9        // mm
	VMULPD  (R11), Y9, Y9     // fm = ps*mm
	VMOVUPD (R12), Y10        // fM[i-1][j]
	VMULPD  Y2, Y10, Y10      // tmg*fM
	VMOVUPD (R13), Y11        // fX[i-1][j]
	VMULPD  Y3, Y11, Y11      // tgg*fX
	VADDPD  Y11, Y10, Y10
	VMULPD  Y4, Y10, Y10      // fx
	VMOVUPD -64(R8), Y11      // fM[i][j-1]
	VMULPD  Y2, Y11, Y11      // tmg*fM
	VMOVUPD -64(R10), Y12     // fY[i][j-1]
	VMULPD  Y3, Y12, Y12      // tgg*fY
	VADDPD  Y12, Y11, Y11
	VMULPD  Y4, Y11, Y11      // fy
	VMOVUPD Y9, (R8)
	VMOVUPD Y10, (R9)
	VMOVUPD Y11, (R10)
	VADDPD  Y10, Y9, Y9       // fm + fx
	VADDPD  Y11, Y9, Y9       // + fy
	VADDPD  Y9, Y6, Y6        // rs +=

	// ---- lanes 4-7 ----
	VMOVUPD -32(R13), Y8
	VADDPD  -32(R15), Y8, Y8
	VMULPD  Y1, Y8, Y8
	VMOVUPD -32(R12), Y9
	VMULPD  Y0, Y9, Y9
	VADDPD  Y8, Y9, Y9
	VADDPD  Y5, Y9, Y9
	VMULPD  32(R11), Y9, Y9
	VMOVUPD 32(R12), Y10
	VMULPD  Y2, Y10, Y10
	VMOVUPD 32(R13), Y11
	VMULPD  Y3, Y11, Y11
	VADDPD  Y11, Y10, Y10
	VMULPD  Y4, Y10, Y10
	VMOVUPD -32(R8), Y11
	VMULPD  Y2, Y11, Y11
	VMOVUPD -32(R10), Y12
	VMULPD  Y3, Y12, Y12
	VADDPD  Y12, Y11, Y11
	VMULPD  Y4, Y11, Y11
	VMOVUPD Y9, 32(R8)
	VMOVUPD Y10, 32(R9)
	VMOVUPD Y11, 32(R10)
	VADDPD  Y10, Y9, Y9
	VADDPD  Y11, Y9, Y9
	VADDPD  Y9, Y7, Y7

	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $64, R12
	ADDQ $64, R13
	ADDQ $64, R15
	DECQ CX
	JNZ  fwdloop

	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func scaleRowAVX2(a *scaleRow8)
//
// Rescale one row of the three forward planes by the per-lane inverse
// row sum (inv == 0 zeroes a dead lane's row).
TEXT ·scaleRowAVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), R8    // pM
	MOVQ 8(AX), R9    // pX
	MOVQ 16(AX), R10  // pY
	MOVQ 24(AX), R11  // inv
	MOVQ 32(AX), CX   // steps
	VMOVUPD (R11), Y0   // inv, lanes 0-3
	VMOVUPD 32(R11), Y1 // inv, lanes 4-7

scaleloop:
	VMOVUPD (R8), Y2
	VMULPD  Y0, Y2, Y2
	VMOVUPD Y2, (R8)
	VMOVUPD 32(R8), Y3
	VMULPD  Y1, Y3, Y3
	VMOVUPD Y3, 32(R8)
	VMOVUPD (R9), Y2
	VMULPD  Y0, Y2, Y2
	VMOVUPD Y2, (R9)
	VMOVUPD 32(R9), Y3
	VMULPD  Y1, Y3, Y3
	VMOVUPD Y3, 32(R9)
	VMOVUPD (R10), Y2
	VMULPD  Y0, Y2, Y2
	VMOVUPD Y2, (R10)
	VMOVUPD 32(R10), Y3
	VMULPD  Y1, Y3, Y3
	VMOVUPD Y3, 32(R10)
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	DECQ CX
	JNZ  scaleloop

	VZEROUPPER
	RET

// func backwardRowAVX2(a *bwdRow8)
//
// One backward row, j descending over [lo, start]:
//   diag = (ps[i+1][j+1] * bM[i+1][j+1]) * iv
//   bx   = bX[i+1][j] * iv
//   by   = bY[i][j+1]              (previous iteration's store)
//   bM[i][j] = tmm*diag + tmgq*bx + tmgq*by
//   bX[i][j] = tgm*diag + tggq*bx
//   bY[i][j] = tgm*diag + tggq*by
// where tmgq = tmg*q and tggq = tgg*q exactly as the generic loop
// computes p.TMG*p.Q and p.TGG*p.Q (left-associative, one rounding).
TEXT ·backwardRowAVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), R8    // outM  = &bM[(cur+start)*8]
	MOVQ 8(AX), R9    // outX  = &bX[(cur+start)*8]
	MOVQ 16(AX), R10  // outY  = &bY[(cur+start)*8]
	MOVQ 24(AX), R11  // nextM = &bM[(next+start)*8]
	MOVQ 32(AX), R12  // nextX = &bX[(next+start)*8]
	MOVQ 40(AX), R13  // ps    = &pstar[(next+start)*8]
	MOVQ 48(AX), R15  // iv
	MOVQ 56(AX), CX   // steps
	VBROADCASTSD 64(AX), Y0  // tmm
	VBROADCASTSD 72(AX), Y1  // tgm
	VBROADCASTSD 80(AX), Y2  // tmgq
	VBROADCASTSD 88(AX), Y3  // tggq
	VMOVUPD (R15), Y4        // iv, lanes 0-3
	VMOVUPD 32(R15), Y5      // iv, lanes 4-7

bwdloop:
	// ---- lanes 0-3 ----
	VMOVUPD 64(R13), Y8       // ps[i+1][j+1]
	VMULPD  64(R11), Y8, Y8   // * bM[i+1][j+1]
	VMULPD  Y4, Y8, Y8        // * iv = diag
	VMOVUPD (R12), Y9         // bX[i+1][j]
	VMULPD  Y4, Y9, Y9        // bx
	VMOVUPD 64(R10), Y10      // by = bY[i][j+1]
	VMULPD  Y0, Y8, Y11       // tmm*diag
	VMULPD  Y1, Y8, Y8        // tgm*diag
	VMULPD  Y2, Y9, Y12       // tmgq*bx
	VMULPD  Y3, Y9, Y9        // tggq*bx
	VMULPD  Y2, Y10, Y13      // tmgq*by
	VMULPD  Y3, Y10, Y10      // tggq*by
	VADDPD  Y12, Y11, Y11
	VADDPD  Y13, Y11, Y11
	VMOVUPD Y11, (R8)         // bM[i][j]
	VADDPD  Y9, Y8, Y9
	VMOVUPD Y9, (R9)          // bX[i][j]
	VADDPD  Y10, Y8, Y10
	VMOVUPD Y10, (R10)        // bY[i][j]

	// ---- lanes 4-7 ----
	VMOVUPD 96(R13), Y8
	VMULPD  96(R11), Y8, Y8
	VMULPD  Y5, Y8, Y8
	VMOVUPD 32(R12), Y9
	VMULPD  Y5, Y9, Y9
	VMOVUPD 96(R10), Y10
	VMULPD  Y0, Y8, Y11
	VMULPD  Y1, Y8, Y8
	VMULPD  Y2, Y9, Y12
	VMULPD  Y3, Y9, Y9
	VMULPD  Y2, Y10, Y13
	VMULPD  Y3, Y10, Y10
	VADDPD  Y12, Y11, Y11
	VADDPD  Y13, Y11, Y11
	VMOVUPD Y11, 32(R8)
	VADDPD  Y9, Y8, Y9
	VMOVUPD Y9, 32(R9)
	VADDPD  Y10, Y8, Y10
	VMOVUPD Y10, 32(R10)

	SUBQ $64, R8
	SUBQ $64, R9
	SUBQ $64, R10
	SUBQ $64, R11
	SUBQ $64, R12
	SUBQ $64, R13
	DECQ CX
	JNZ  bwdloop

	VZEROUPPER
	RET

// func extractRowAVX2(a *zRow8)
//
// One row of posterior extraction, j ascending over [lo, hi]; z is the
// lane-striped accumulator, five channels of 8 lanes per column:
//   pm        = (fM[i][j] * bM[i][j]) * inv
//   z[j][k]  += pm * wt[k]                      k = A, C, G, T
//   z[j][gap] += (fY[i][j] * bY[i][j]) * inv
// wt is the row's per-lane attribution weight (wt[k*8+l]), which makes
// ByCall and ByPWM one expression — see extractStripe in batch.go for
// why that is bit-identical to the branchy per-lane loop. Columns are
// independent, so unlike the sweeps there is no serial chain here: the
// loop is bound by its memory traffic, four plane lines in and ten
// half-lines of z updated per column.
TEXT ·extractRowAVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), R8    // fM  = &fM[(cur+lo)*8]
	MOVQ 8(AX), R9    // bM  = &bM[(cur+lo)*8]
	MOVQ 16(AX), R10  // fY  = &fY[(cur+lo)*8]
	MOVQ 24(AX), R11  // bY  = &bY[(cur+lo)*8]
	MOVQ 32(AX), R12  // z   = &zs[(lo-1)*5*8]
	MOVQ 40(AX), R13  // wt
	MOVQ 48(AX), DI   // inv
	MOVQ 56(AX), CX   // steps
	VMOVUPD (DI), Y0      // inv, lanes 0-3
	VMOVUPD 32(DI), Y1    // inv, lanes 4-7
	VMOVUPD (R13), Y2     // wt[A], lanes 0-3
	VMOVUPD 32(R13), Y3   // wt[A], lanes 4-7
	VMOVUPD 64(R13), Y4   // wt[C]
	VMOVUPD 96(R13), Y5
	VMOVUPD 128(R13), Y6  // wt[G]
	VMOVUPD 160(R13), Y7
	VMOVUPD 192(R13), Y8  // wt[T]
	VMOVUPD 224(R13), Y9

zloop:
	// ---- lanes 0-3 ----
	VMOVUPD (R8), Y10
	VMULPD  (R9), Y10, Y10    // fM*bM
	VMULPD  Y0, Y10, Y10      // pm
	VMULPD  Y2, Y10, Y11      // pm*wt[A]
	VADDPD  (R12), Y11, Y11
	VMOVUPD Y11, (R12)        // z[j][A]
	VMULPD  Y4, Y10, Y12
	VADDPD  64(R12), Y12, Y12
	VMOVUPD Y12, 64(R12)      // z[j][C]
	VMULPD  Y6, Y10, Y13
	VADDPD  128(R12), Y13, Y13
	VMOVUPD Y13, 128(R12)     // z[j][G]
	VMULPD  Y8, Y10, Y14
	VADDPD  192(R12), Y14, Y14
	VMOVUPD Y14, 192(R12)     // z[j][T]
	VMOVUPD (R10), Y11
	VMULPD  (R11), Y11, Y11   // fY*bY
	VMULPD  Y0, Y11, Y11
	VADDPD  256(R12), Y11, Y11
	VMOVUPD Y11, 256(R12)     // z[j][gap]

	// ---- lanes 4-7 ----
	VMOVUPD 32(R8), Y10
	VMULPD  32(R9), Y10, Y10
	VMULPD  Y1, Y10, Y10
	VMULPD  Y3, Y10, Y11
	VADDPD  32(R12), Y11, Y11
	VMOVUPD Y11, 32(R12)
	VMULPD  Y5, Y10, Y12
	VADDPD  96(R12), Y12, Y12
	VMOVUPD Y12, 96(R12)
	VMULPD  Y7, Y10, Y13
	VADDPD  160(R12), Y13, Y13
	VMOVUPD Y13, 160(R12)
	VMULPD  Y9, Y10, Y14
	VADDPD  224(R12), Y14, Y14
	VMOVUPD Y14, 224(R12)
	VMOVUPD 32(R10), Y11
	VMULPD  32(R11), Y11, Y11
	VMULPD  Y1, Y11, Y11
	VADDPD  288(R12), Y11, Y11
	VMOVUPD Y11, 288(R12)

	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $320, R12
	DECQ CX
	JNZ  zloop

	VZEROUPPER
	RET
