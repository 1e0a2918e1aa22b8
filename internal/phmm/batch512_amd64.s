//go:build amd64

#include "textflag.h"

// AVX-512 row kernels for the 8-lane batched Pair-HMM sweeps: the row
// contract of rows.go once more, with one loop iteration advancing all 8
// lanes of one cell in one ZMM register per plane where batch_amd64.s
// uses two YMM halves. Every arithmetic instruction is the packed
// IEEE-754 multiply, add or divide its AVX2 twin issues, with the same
// operands in the same order, so each lane rounds exactly as the scalar
// kernel does and the results are bit-identical to both other
// implementations. No FMA. Opmasks only select lanes (the gather, the
// dead-lane blend); they never change a value.
//
// Register discipline: only Z0-Z14 and K1-K2. R14 and X15 belong to the
// Go internal ABI (g and the zero register), and VZEROUPPER, which every
// row ends with, does not clean Z16-Z31. R15 is left alone for the same
// reason as in batch_amd64.s. Assembly functions are never asynchronously
// preempted, so ZMM state needs no saving inside a row.

DATA one512<>+0(SB)/8, $1.0
GLOBL one512<>(SB), RODATA|NOPTR, $8

// EMIT512(row, tab) stores one entry of the row's emission table for all
// 8 lanes: tab = ((A*m[A] + C*m[C]) + G*m[G]) + T*m[T], the scalar
// fillEmissions sum in its order, with m the emit row at byte offset row
// of DX, broadcast from memory, and the lanes' PWM probabilities in Z0-Z3.
#define EMIT512(row, tab) \
	VMULPD.BCST (row)(DX), Z0, Z12; \
	VMULPD.BCST (row+8)(DX), Z1, Z13; \
	VADDPD  Z13, Z12, Z12; \
	VMULPD.BCST (row+16)(DX), Z2, Z13; \
	VADDPD  Z13, Z12, Z12; \
	VMULPD.BCST (row+24)(DX), Z3, Z13; \
	VADDPD  Z13, Z12, Z12; \
	VMOVUPD Z12, (tab)(AX)

// func forwardRowAVX512(a *fwdRow8)
//
// forwardRowAVX2 (batch_amd64.s) one cell per iteration: the emission
// table, then j ascending over [lo, hi] with fM[i][j-1], fY[i][j-1] and
// the row sum carried in Z0, Z1 and Z4, then the row's tail and guards.
TEXT ·forwardRowAVX512(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX

	MOVQ 64(AX), SI       // pw
	MOVQ 72(AX), DX       // emit
	VMOVUPD 0(SI), Z0     // PWM A, lanes 0-7
	VMOVUPD 64(SI), Z1    // C
	VMOVUPD 128(SI), Z2   // G
	VMOVUPD 192(SI), Z3   // T
	EMIT512(0, 168)
	EMIT512(32, 232)
	EMIT512(64, 296)
	EMIT512(96, 360)
	EMIT512(128, 424)

	MOVQ 0(AX), R8        // outM  = &fM[(cur+lo)*8]
	MOVQ 8(AX), R9        // outX
	MOVQ 16(AX), R10      // outY
	MOVQ 24(AX), R11      // ps
	MOVQ 32(AX), R12      // prevM = &fM[(prev+lo)*8]
	MOVQ 40(AX), R13      // prevX
	MOVQ 48(AX), BX       // prevY
	MOVQ 56(AX), DX       // codes
	LEAQ 168(AX), SI      // tab
	MOVQ 88(AX), CX       // steps
	VBROADCASTSD 552(AX), Z11 // tmg
	VBROADCASTSD 584(AX), Z12 // tgg
	VBROADCASTSD 616(AX), Z13 // q
	VBROADCASTSD 520(AX), Z14 // tgm
	VPXORQ  Z0, Z0, Z0    // fM[i][j-1]
	VPXORQ  Z1, Z1, Z1    // fY[i][j-1]
	VPXORQ  Z4, Z4, Z4    // rs
	// Left guard: column lo-1, read here through the registers and by
	// row i+1 from memory.
	VMOVUPD Z0, -64(R8)
	VMOVUPD Z0, -64(R9)
	VMOVUPD Z0, -64(R10)
	XORQ DI, DI           // byte offset of column j from column lo

fwdloop:
	VMOVDQU (DX), Y6                  // the 8 lanes' table indices
	KXNORW  K1, K1, K1                // the gather clears its mask
	VGATHERDPD (SI)(Y6*8), K1, Z8     // p*
	VMOVUPD Z8, (R11)(DI*1)
	VMULPD  Z11, Z0, Z9
	VMULPD  Z12, Z1, Z10
	VADDPD  Z10, Z9, Z9
	VMULPD  Z13, Z9, Z1               // fy
	VMOVUPD -64(R13)(DI*1), Z9
	VADDPD  -64(BX)(DI*1), Z9, Z9     // fX[i-1][j-1] + fY[i-1][j-1]
	VMULPD  Z14, Z9, Z9
	VMOVUPD -64(R12)(DI*1), Z10
	VMULPD.BCST 488(AX), Z10, Z10     // tmm*fM[i-1][j-1]
	VADDPD  Z9, Z10, Z10
	VADDPD.BCST 648(AX), Z10, Z10     // + rowEntry
	VMULPD  Z10, Z8, Z0               // fm
	VMOVUPD (R12)(DI*1), Z9
	VMULPD  Z11, Z9, Z9
	VMOVUPD (R13)(DI*1), Z10
	VMULPD  Z12, Z10, Z10
	VADDPD  Z10, Z9, Z9
	VMULPD  Z13, Z9, Z9               // fx
	VMOVUPD Z0, (R8)(DI*1)
	VMOVUPD Z9, (R9)(DI*1)
	VMOVUPD Z1, (R10)(DI*1)
	VADDPD  Z9, Z0, Z9
	VADDPD  Z1, Z9, Z9
	VADDPD  Z9, Z4, Z4
	ADDQ $64, DI
	ADDQ $32, DX
	DECQ CX
	JNZ  fwdloop

	// Row tail. The compare yields a mask; turned into all-ones lanes it
	// is ORed into dead as forwardRowAVX2's compare result is, and the
	// blend then reads the lanes' sign bits, as VBLENDVPD does.
	VPXORQ    Z6, Z6, Z6
	VCMPPD    $2, Z6, Z4, K2   // rs <= 0 (LE_OS: false for NaN, like Go's)
	VPMOVM2Q  K2, Z7
	VORPD     104(AX), Z7, Z7  // dead |=
	VMOVUPD   Z7, 104(AX)
	VPMOVQ2M  Z7, K2
	VBROADCASTSD one512<>(SB), Z9
	VDIVPD    Z4, Z9, Z10      // 1/rs, correctly rounded like the scalar's
	VBLENDMPD Z9, Z4, K2, Z12  // scale = dead ? 1 : rs
	MOVQ      80(AX), DX
	VMOVUPD   Z12, (DX)
	VANDNPD   Z10, Z7, Z4      // inv = dead ? 0 : 1/rs

	MOVQ 88(AX), CX
	XORQ DI, DI
scaleloop:
	VMULPD  (R8)(DI*1), Z4, Z6
	VMOVUPD Z6, (R8)(DI*1)
	VMULPD  (R9)(DI*1), Z4, Z6
	VMOVUPD Z6, (R9)(DI*1)
	VMULPD  (R10)(DI*1), Z4, Z6
	VMOVUPD Z6, (R10)(DI*1)
	ADDQ $64, DI
	DECQ CX
	JNZ  scaleloop

	// Right guard: row i+1's band may extend one column past hi.
	MOVQ  96(AX), CX
	TESTQ CX, CX
	JZ    fwddone
	VPXORQ  Z6, Z6, Z6
	VMOVUPD Z6, (R8)(DI*1)
	VMOVUPD Z6, (R9)(DI*1)
	VMOVUPD Z6, (R10)(DI*1)
fwddone:
	VZEROUPPER
	RET

// func backwardRowAVX512(a *bwdRow8)
//
// backwardRowAVX2 one cell per iteration: iv = 1/scale[i+1], column m or
// the right guard, j descending with bY[i][j+1] carried in Z6, and the
// left guard.
TEXT ·backwardRowAVX512(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), R8    // outM  = &bM[(cur+hi)*8]
	MOVQ 8(AX), R9    // outX
	MOVQ 16(AX), R10  // outY
	MOVQ 24(AX), R11  // nextM = &bM[(next+hi)*8]
	MOVQ 32(AX), R12  // nextX
	MOVQ 40(AX), R13  // ps    = &pstar[(next+hi)*8]
	MOVQ 48(AX), SI   // scale[i+1]
	MOVQ 56(AX), CX   // steps
	VBROADCASTSD 72(AX), Z0  // tmm
	VBROADCASTSD 80(AX), Z1  // tgm
	VBROADCASTSD 88(AX), Z2  // tmgq
	VBROADCASTSD 96(AX), Z3  // tggq
	VBROADCASTSD one512<>(SB), Z5
	VDIVPD  (SI), Z5, Z4     // iv
	VPXORQ  Z6, Z6, Z6       // by
	XORQ    DI, DI           // byte offset of column j from column hi
	MOVQ    64(AX), DX
	TESTQ   DX, DX
	JZ      bwdguard

	// Column m has no diagonal or GY continuation.
	VMULPD  (R12), Z4, Z8    // bxm
	VMULPD  Z2, Z8, Z9
	VMOVUPD Z9, (R8)
	VMULPD  Z3, Z8, Z9
	VMOVUPD Z9, (R9)
	VMOVUPD Z6, (R10)
	SUBQ    $64, DI
	DECQ    CX
	JMP     bwdsweep

bwdguard:
	// Right guard: the GY term reads (i, hi+1), and row i-1 may read it.
	VMOVUPD Z6, 64(R8)
	VMOVUPD Z6, 64(R9)
	VMOVUPD Z6, 64(R10)

bwdsweep:
	TESTQ CX, CX
	JZ    bwdleft
bwdloop:
	VMOVUPD 64(R13)(DI*1), Z8
	VMULPD  64(R11)(DI*1), Z8, Z8
	VMULPD  Z4, Z8, Z8       // diag
	VMOVUPD (R12)(DI*1), Z9
	VMULPD  Z4, Z9, Z9       // bx
	VMULPD  Z0, Z8, Z10
	VMULPD  Z2, Z9, Z11
	VADDPD  Z11, Z10, Z10
	VMULPD  Z2, Z6, Z11
	VADDPD  Z11, Z10, Z10    // bM
	VMULPD  Z1, Z8, Z8
	VMULPD  Z3, Z9, Z9
	VADDPD  Z9, Z8, Z9       // bX
	VMULPD  Z3, Z6, Z6
	VADDPD  Z6, Z8, Z6       // bY
	VMOVUPD Z10, (R8)(DI*1)
	VMOVUPD Z9, (R9)(DI*1)
	VMOVUPD Z6, (R10)(DI*1)
	SUBQ $64, DI
	DECQ CX
	JNZ  bwdloop

bwdleft:
	// Left guard for row i-1's reads: column lo-1.
	VPXORQ  Z8, Z8, Z8
	VMOVUPD Z8, (R8)(DI*1)
	VMOVUPD Z8, (R9)(DI*1)
	VMOVUPD Z8, (R10)(DI*1)
	VZEROUPPER
	RET

// func extractRowAVX512(a *zRow8)
//
// extractRowAVX2 one column per iteration: pm = (fM*bM)*inv, z[j][k] +=
// pm*wt[k] for k = A, C, G, T, and z[j][gap] += (fY*bY)*inv, each channel
// of a column one ZMM line of z.
TEXT ·extractRowAVX512(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), R8    // fM  = &fM[(cur+lo)*8]
	MOVQ 8(AX), R9    // bM  = &bM[(cur+lo)*8]
	MOVQ 16(AX), R10  // fY  = &fY[(cur+lo)*8]
	MOVQ 24(AX), R11  // bY  = &bY[(cur+lo)*8]
	MOVQ 32(AX), R12  // z   = &zs[(lo-1)*5*8]
	MOVQ 40(AX), R13  // wt
	MOVQ 48(AX), DI   // inv
	MOVQ 56(AX), CX   // steps
	VMOVUPD (DI), Z0      // inv
	VMOVUPD (R13), Z2     // wt[A]
	VMOVUPD 64(R13), Z4   // wt[C]
	VMOVUPD 128(R13), Z6  // wt[G]
	VMOVUPD 192(R13), Z8  // wt[T]

zloop:
	VMOVUPD (R8), Z10
	VMULPD  (R9), Z10, Z10    // fM*bM
	VMULPD  Z0, Z10, Z10      // pm
	VMULPD  Z2, Z10, Z11      // pm*wt[A]
	VADDPD  (R12), Z11, Z11
	VMOVUPD Z11, (R12)        // z[j][A]
	VMULPD  Z4, Z10, Z12
	VADDPD  64(R12), Z12, Z12
	VMOVUPD Z12, 64(R12)      // z[j][C]
	VMULPD  Z6, Z10, Z13
	VADDPD  128(R12), Z13, Z13
	VMOVUPD Z13, 128(R12)     // z[j][G]
	VMULPD  Z8, Z10, Z14
	VADDPD  192(R12), Z14, Z14
	VMOVUPD Z14, 192(R12)     // z[j][T]
	VMOVUPD (R10), Z11
	VMULPD  (R11), Z11, Z11   // fY*bY
	VMULPD  Z0, Z11, Z11
	VADDPD  256(R12), Z11, Z11
	VMOVUPD Z11, 256(R12)     // z[j][gap]

	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $320, R12
	DECQ CX
	JNZ  zloop

	VZEROUPPER
	RET
