//go:build amd64

#include "textflag.h"

// AVX2 row kernels for the 8-lane batched Pair-HMM sweeps. Each loop
// iteration advances all 8 lanes of one cell with two 4-wide halves
// (byte offsets +0 and +32 of the 64-byte lane stripe). Only packed
// IEEE-754 multiply, add, subtract and divide do arithmetic — each rounds
// every lane exactly like the scalar operation in align.go — and the
// expression trees mirror the generic Go loops in batch.go operation for
// operation, so results are bit-identical to the scalar kernel. No FMA,
// anywhere, ever: the scalar kernel does not contract, so neither may we.
//
// Register discipline: R14 and X15/Y15 are reserved by the Go internal
// ABI (g and the zero register) and are not touched; R15 is left alone
// too, as the dynamic linker may use it to reach the constants in k<>.

// Four copies of each constant, so a packed op can take it from memory.
#define C4(off, v) DATA k<>+(off)(SB)/8, v; DATA k<>+(off+8)(SB)/8, v; DATA k<>+(off+16)(SB)/8, v; DATA k<>+(off+24)(SB)/8, v

C4(0, $1.0)
C4(32, $2.0)
C4(64, $0.5)                      // also the exponent bits of [0.5, 1)
C4(96, $0x000FFFFFFFFFFFFF)       // mantissa mask
C4(128, $0x4330000000000000)      // 2^52
C4(160, $0x43300000000003FE)      // 2^52 + 1022
C4(192, $7.07106781186547524401e-01) // sqrt(2)/2
C4(224, $6.93147180369123816490e-01) // Ln2Hi
C4(256, $1.90821492927058770002e-10) // Ln2Lo
C4(288, $6.666666666666735130e-01)   // L1
C4(320, $3.999999999940941908e-01)   // L2
C4(352, $2.857142874366239149e-01)   // L3
C4(384, $2.222219843214978396e-01)   // L4
C4(416, $1.818357216161805012e-01)   // L5
C4(448, $1.531383769920937332e-01)   // L6
C4(480, $1.479819860511658591e-01)   // L7
C4(512, $0x7FF0000000000000)      // +Inf
GLOBL k<>(SB), RODATA|NOPTR, $544

// EMIT(row, tab) stores one entry of the row's emission table for all 8
// lanes: tab = ((A*m[A] + C*m[C]) + G*m[G]) + T*m[T], the scalar
// fillEmissions sum in its order, with m the emit row at byte offset row
// of DX and the lanes' PWM probabilities in Y0-Y3 (lanes 0-3) and Y4-Y7
// (lanes 4-7).
#define EMIT(row, tab) \
	VBROADCASTSD (row)(DX), Y8; \
	VBROADCASTSD (row+8)(DX), Y9; \
	VBROADCASTSD (row+16)(DX), Y10; \
	VBROADCASTSD (row+24)(DX), Y11; \
	VMULPD  Y8, Y0, Y12; \
	VMULPD  Y9, Y1, Y13; \
	VADDPD  Y13, Y12, Y12; \
	VMULPD  Y10, Y2, Y13; \
	VADDPD  Y13, Y12, Y12; \
	VMULPD  Y11, Y3, Y13; \
	VADDPD  Y13, Y12, Y12; \
	VMOVUPD Y12, (tab)(AX); \
	VMULPD  Y8, Y4, Y12; \
	VMULPD  Y9, Y5, Y13; \
	VADDPD  Y13, Y12, Y12; \
	VMULPD  Y10, Y6, Y13; \
	VADDPD  Y13, Y12, Y12; \
	VMULPD  Y11, Y7, Y13; \
	VADDPD  Y13, Y12, Y12; \
	VMOVUPD Y12, (tab+32)(AX)

// FWDHALF(h, fm, fy, rs) advances the 4 lanes at byte offset h of the
// stripe by one cell; fm and fy hold the row's previous cell (j-1) and
// are left holding this one, rs accumulates the row sum. Y11-Y14 hold
// tmg, tgg, q and tgm; tmm and rowEntry are read from the argument.
#define FWDHALF(h, fm, fy, rs) \
	VMOVDQU (h/2)(DX), X6; \
	VPCMPEQD Y7, Y7, Y7; \
	VGATHERDPD Y7, (SI)(X6*8), Y8; \
	VMOVUPD Y8, (h)(R11)(DI*1); \
	VMULPD  Y11, fm, Y9; \
	VMULPD  Y12, fy, Y10; \
	VADDPD  Y10, Y9, Y9; \
	VMULPD  Y13, Y9, fy; \
	VMOVUPD (h-64)(R13)(DI*1), Y9; \
	VMOVUPD (h-64)(BX)(DI*1), Y10; \
	VADDPD  Y10, Y9, Y9; \
	VMULPD  Y14, Y9, Y9; \
	VMOVUPD (h-64)(R12)(DI*1), Y10; \
	VMULPD  488(AX), Y10, Y10; \
	VADDPD  Y9, Y10, Y10; \
	VADDPD  648(AX), Y10, Y10; \
	VMULPD  Y10, Y8, fm; \
	VMOVUPD (h)(R12)(DI*1), Y9; \
	VMULPD  Y11, Y9, Y9; \
	VMOVUPD (h)(R13)(DI*1), Y10; \
	VMULPD  Y12, Y10, Y10; \
	VADDPD  Y10, Y9, Y9; \
	VMULPD  Y13, Y9, Y9; \
	VMOVUPD fm, (h)(R8)(DI*1); \
	VMOVUPD Y9, (h)(R9)(DI*1); \
	VMOVUPD fy, (h)(R10)(DI*1); \
	VADDPD  Y9, fm, Y9; \
	VADDPD  fy, Y9, Y9; \
	VADDPD  Y9, rs, rs

// func forwardRowAVX2(a *fwdRow8)
//
// One forward row i. First its emission table, tab[v*8+l] for window code
// v (A, C, G, T, ambiguous) from the lanes' PWM rows; then j ascending
// over [lo, hi]:
//   p* = tab[codes[j-1][l]]                    (stored for the backward pass)
//   mm = tmm*fM[i-1][j-1] + tgm*(fX[i-1][j-1]+fY[i-1][j-1]) + rowEntry
//   fm = p* * mm
//   fx = q*(tmg*fM[i-1][j] + tgg*fX[i-1][j])
//   fy = q*(tmg*fM[i][j-1] + tgg*fY[i][j-1])
//   rs += (fm + fx) + fy
// with fM[i][j-1] and fY[i][j-1] carried in registers from the previous
// step (the left guard's zeros at j = lo), so the serial GY chain is three
// arithmetic ops long; then the row's tail: dead |= rs <= 0, scale = dead
// ? 1 : rs, inv = dead ? 0 : 1/rs, the row times inv, and the guards.
TEXT ·forwardRowAVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX

	MOVQ 64(AX), SI       // pw
	MOVQ 72(AX), DX       // emit
	VMOVUPD 0(SI), Y0     // PWM A, lanes 0-3
	VMOVUPD 64(SI), Y1    // C
	VMOVUPD 128(SI), Y2   // G
	VMOVUPD 192(SI), Y3   // T
	VMOVUPD 32(SI), Y4    // A, lanes 4-7
	VMOVUPD 96(SI), Y5
	VMOVUPD 160(SI), Y6
	VMOVUPD 224(SI), Y7
	EMIT(0, 168)
	EMIT(32, 232)
	EMIT(64, 296)
	EMIT(96, 360)
	EMIT(128, 424)

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
	VMOVUPD 552(AX), Y11  // tmg
	VMOVUPD 584(AX), Y12  // tgg
	VMOVUPD 616(AX), Y13  // q
	VMOVUPD 520(AX), Y14  // tgm
	VXORPD  Y0, Y0, Y0    // fM[i][j-1], lanes 0-3
	VXORPD  Y1, Y1, Y1    // fY[i][j-1], lanes 0-3
	VXORPD  Y2, Y2, Y2    // fM[i][j-1], lanes 4-7
	VXORPD  Y3, Y3, Y3    // fY[i][j-1], lanes 4-7
	VXORPD  Y4, Y4, Y4    // rs, lanes 0-3
	VXORPD  Y5, Y5, Y5    // rs, lanes 4-7
	// Left guard: column lo-1, read here through the registers and by
	// row i+1 from memory.
	VMOVUPD Y0, -64(R8)
	VMOVUPD Y0, -32(R8)
	VMOVUPD Y0, -64(R9)
	VMOVUPD Y0, -32(R9)
	VMOVUPD Y0, -64(R10)
	VMOVUPD Y0, -32(R10)
	XORQ DI, DI           // byte offset of column j from column lo

fwdloop:
	FWDHALF(0, Y0, Y1, Y4)
	FWDHALF(32, Y2, Y3, Y5)
	ADDQ $64, DI
	ADDQ $32, DX
	DECQ CX
	JNZ  fwdloop

	// Row tail, all lanes at once: Go's rs <= 0 is false for NaN, and so
	// is LE_OS.
	VXORPD    Y6, Y6, Y6
	VCMPPD    $2, Y6, Y4, Y7   // rs <= 0
	VCMPPD    $2, Y6, Y5, Y8
	VORPD     104(AX), Y7, Y7  // dead |=
	VORPD     136(AX), Y8, Y8
	VMOVUPD   Y7, 104(AX)
	VMOVUPD   Y8, 136(AX)
	VMOVUPD   k<>+0(SB), Y9    // 1
	VDIVPD    Y4, Y9, Y10      // 1/rs, correctly rounded like the scalar's
	VDIVPD    Y5, Y9, Y11
	VBLENDVPD Y7, Y9, Y4, Y12  // scale = dead ? 1 : rs
	VBLENDVPD Y8, Y9, Y5, Y13
	MOVQ      80(AX), DX
	VMOVUPD   Y12, (DX)
	VMOVUPD   Y13, 32(DX)
	VANDNPD   Y10, Y7, Y4      // inv = dead ? 0 : 1/rs
	VANDNPD   Y11, Y8, Y5

	MOVQ 88(AX), CX
	XORQ DI, DI
scaleloop:
	VMULPD  (R8)(DI*1), Y4, Y6
	VMOVUPD Y6, (R8)(DI*1)
	VMULPD  32(R8)(DI*1), Y5, Y6
	VMOVUPD Y6, 32(R8)(DI*1)
	VMULPD  (R9)(DI*1), Y4, Y6
	VMOVUPD Y6, (R9)(DI*1)
	VMULPD  32(R9)(DI*1), Y5, Y6
	VMOVUPD Y6, 32(R9)(DI*1)
	VMULPD  (R10)(DI*1), Y4, Y6
	VMOVUPD Y6, (R10)(DI*1)
	VMULPD  32(R10)(DI*1), Y5, Y6
	VMOVUPD Y6, 32(R10)(DI*1)
	ADDQ $64, DI
	DECQ CX
	JNZ  scaleloop

	// Right guard: row i+1's band may extend one column past hi.
	MOVQ  96(AX), CX
	TESTQ CX, CX
	JZ    fwddone
	VXORPD  Y6, Y6, Y6
	VMOVUPD Y6, (R8)(DI*1)
	VMOVUPD Y6, 32(R8)(DI*1)
	VMOVUPD Y6, (R9)(DI*1)
	VMOVUPD Y6, 32(R9)(DI*1)
	VMOVUPD Y6, (R10)(DI*1)
	VMOVUPD Y6, 32(R10)(DI*1)
fwddone:
	VZEROUPPER
	RET

// BWDHALF(h, iv, by) computes the 4 lanes at byte offset h of column j;
// by holds bY[i][j+1] and is left holding bY[i][j].
#define BWDHALF(h, iv, by) \
	VMOVUPD (h+64)(R13)(DI*1), Y8; \
	VMOVUPD (h+64)(R11)(DI*1), Y9; \
	VMULPD  Y9, Y8, Y8; \
	VMULPD  iv, Y8, Y8; \
	VMOVUPD (h)(R12)(DI*1), Y9; \
	VMULPD  iv, Y9, Y9; \
	VMULPD  Y0, Y8, Y10; \
	VMULPD  Y2, Y9, Y11; \
	VADDPD  Y11, Y10, Y10; \
	VMULPD  Y2, by, Y11; \
	VADDPD  Y11, Y10, Y10; \
	VMULPD  Y1, Y8, Y8; \
	VMULPD  Y3, Y9, Y9; \
	VADDPD  Y9, Y8, Y9; \
	VMULPD  Y3, by, by; \
	VADDPD  by, Y8, by; \
	VMOVUPD Y10, (h)(R8)(DI*1); \
	VMOVUPD Y9, (h)(R9)(DI*1); \
	VMOVUPD by, (h)(R10)(DI*1)

// func backwardRowAVX2(a *bwdRow8)
//
// One backward row i < n: iv = 1/scale[i+1]; column m when the band
// reaches it (bxm = bX[i+1][m]*iv, bM = tmgq*bxm, bX = tggq*bxm, bY = 0),
// else the right guard at hi+1; then j descending over [lo, min(hi, m-1)]:
//   diag = (ps[i+1][j+1] * bM[i+1][j+1]) * iv
//   bx   = bX[i+1][j] * iv
//   by   = bY[i][j+1]              (carried from the previous step)
//   bM[i][j] = tmm*diag + tmgq*bx + tmgq*by
//   bX[i][j] = tgm*diag + tggq*bx
//   bY[i][j] = tgm*diag + tggq*by
// and the left guard at lo-1. tmgq = tmg*q and tggq = tgg*q exactly as
// the generic loop computes p.TMG*p.Q and p.TGG*p.Q (left-associative,
// one rounding).
TEXT ·backwardRowAVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), R8    // outM  = &bM[(cur+hi)*8]
	MOVQ 8(AX), R9    // outX
	MOVQ 16(AX), R10  // outY
	MOVQ 24(AX), R11  // nextM = &bM[(next+hi)*8]
	MOVQ 32(AX), R12  // nextX
	MOVQ 40(AX), R13  // ps    = &pstar[(next+hi)*8]
	MOVQ 48(AX), SI   // scale[i+1]
	MOVQ 56(AX), CX   // steps
	VBROADCASTSD 72(AX), Y0  // tmm
	VBROADCASTSD 80(AX), Y1  // tgm
	VBROADCASTSD 88(AX), Y2  // tmgq
	VBROADCASTSD 96(AX), Y3  // tggq
	VMOVUPD k<>+0(SB), Y5
	VDIVPD  (SI), Y5, Y4     // iv, lanes 0-3
	VDIVPD  32(SI), Y5, Y5   // iv, lanes 4-7
	VXORPD  Y6, Y6, Y6       // by, lanes 0-3
	VXORPD  Y7, Y7, Y7       // by, lanes 4-7
	XORQ    DI, DI           // byte offset of column j from column hi
	MOVQ    64(AX), DX
	TESTQ   DX, DX
	JZ      bwdguard

	// Column m has no diagonal or GY continuation.
	VMULPD  (R12), Y4, Y8    // bxm
	VMULPD  Y2, Y8, Y9
	VMOVUPD Y9, (R8)
	VMULPD  Y3, Y8, Y9
	VMOVUPD Y9, (R9)
	VMOVUPD Y6, (R10)
	VMULPD  32(R12), Y5, Y8
	VMULPD  Y2, Y8, Y9
	VMOVUPD Y9, 32(R8)
	VMULPD  Y3, Y8, Y9
	VMOVUPD Y9, 32(R9)
	VMOVUPD Y6, 32(R10)
	SUBQ    $64, DI
	DECQ    CX
	JMP     bwdsweep

bwdguard:
	// Right guard: the GY term reads (i, hi+1), and row i-1 may read it.
	VMOVUPD Y6, 64(R8)
	VMOVUPD Y6, 96(R8)
	VMOVUPD Y6, 64(R9)
	VMOVUPD Y6, 96(R9)
	VMOVUPD Y6, 64(R10)
	VMOVUPD Y6, 96(R10)

bwdsweep:
	TESTQ CX, CX
	JZ    bwdleft
bwdloop:
	BWDHALF(0, Y4, Y6)
	BWDHALF(32, Y5, Y7)
	SUBQ $64, DI
	DECQ CX
	JNZ  bwdloop

bwdleft:
	// Left guard for row i-1's reads: column lo-1.
	VXORPD  Y8, Y8, Y8
	VMOVUPD Y8, (R8)(DI*1)
	VMOVUPD Y8, 32(R8)(DI*1)
	VMOVUPD Y8, (R9)(DI*1)
	VMOVUPD Y8, 32(R9)(DI*1)
	VMOVUPD Y8, (R10)(DI*1)
	VMOVUPD Y8, 32(R10)(DI*1)
	VZEROUPPER
	RET

// LOG(good) replaces the 4 lanes of Y0 with math.Log of each — Go's
// amd64 archLog instruction for instruction, 4 lanes wide: frexp by bit
// operations, the sqrt(2)/2 adjustment as its CMPSD NLT (f1 <= sqrt(2)/2),
// one divide, the L1-L7 polynomial. It is exact for 0 < x < +Inf only
// (archLog branches away from the rest), so those lanes are ANDed into
// good. Clobbers Y1-Y7; Y12 must hold zeros.
#define LOG(good) \
	VCMPPD $0x1E, Y12, Y0, Y1; \
	VANDPD Y1, good, good; \
	VCMPPD $0x11, k<>+512(SB), Y0, Y1; \
	VANDPD Y1, good, good; \
	VPSRLQ $52, Y0, Y1; \
	VPOR   k<>+128(SB), Y1, Y1; \
	VSUBPD k<>+160(SB), Y1, Y1; \
	VANDPD k<>+96(SB), Y0, Y2; \
	VORPD  k<>+64(SB), Y2, Y2; \
	VCMPPD $2, k<>+192(SB), Y2, Y3; \
	VANDPD k<>+0(SB), Y3, Y3; \
	VSUBPD Y3, Y1, Y1; \
	VADDPD k<>+0(SB), Y3, Y3; \
	VMULPD Y3, Y2, Y2; \
	VSUBPD k<>+0(SB), Y2, Y2; \
	VADDPD k<>+32(SB), Y2, Y3; \
	VDIVPD Y3, Y2, Y3; \
	VMULPD Y3, Y3, Y4; \
	VMULPD Y4, Y4, Y5; \
	VMULPD k<>+480(SB), Y5, Y6; \
	VADDPD k<>+416(SB), Y6, Y6; \
	VMULPD Y5, Y6, Y6; \
	VADDPD k<>+352(SB), Y6, Y6; \
	VMULPD Y5, Y6, Y6; \
	VADDPD k<>+288(SB), Y6, Y6; \
	VMULPD Y6, Y4, Y4; \
	VMULPD k<>+448(SB), Y5, Y6; \
	VADDPD k<>+384(SB), Y6, Y6; \
	VMULPD Y5, Y6, Y6; \
	VADDPD k<>+320(SB), Y6, Y6; \
	VMULPD Y6, Y5, Y5; \
	VADDPD Y5, Y4, Y4; \
	VMULPD k<>+64(SB), Y2, Y5; \
	VMULPD Y2, Y5, Y5; \
	VADDPD Y5, Y4, Y4; \
	VMULPD Y4, Y3, Y3; \
	VMULPD k<>+256(SB), Y1, Y4; \
	VADDPD Y4, Y3, Y3; \
	VSUBPD Y3, Y5, Y5; \
	VSUBPD Y2, Y5, Y5; \
	VMULPD k<>+224(SB), Y1, Y1; \
	VSUBPD Y5, Y1, Y0

// func logLikAVX2(a *logSum8)
//
// sum[l] = log(sum[l]) + log(rows[1][l]) + ... + log(rows[n][l]), added
// in that order — the generic loop's sum — and bad = the lanes where any
// of those values was not in (0, +Inf), whose sums the caller redoes
// with math.Log.
TEXT ·logLikAVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), SI       // rows
	MOVQ 8(AX), CX       // n
	VXORPD   Y12, Y12, Y12
	VPCMPEQD Y10, Y10, Y10   // good, lanes 0-3
	VPCMPEQD Y11, Y11, Y11   // good, lanes 4-7
	VMOVUPD  24(AX), Y0
	LOG(Y10)
	VMOVAPD  Y0, Y8          // sum, lanes 0-3
	VMOVUPD  56(AX), Y0
	LOG(Y11)
	VMOVAPD  Y0, Y9          // sum, lanes 4-7
	TESTQ    CX, CX
	JZ       logdone
logloop:
	VMOVUPD (SI), Y0
	LOG(Y10)
	VADDPD  Y0, Y8, Y8
	VMOVUPD 32(SI), Y0
	LOG(Y11)
	VADDPD  Y0, Y9, Y9
	ADDQ    $64, SI
	DECQ    CX
	JNZ     logloop
logdone:
	VMOVUPD   Y8, 24(AX)
	VMOVUPD   Y9, 56(AX)
	VMOVMSKPD Y10, BX
	VMOVMSKPD Y11, DX
	SHLQ      $4, DX
	ORQ       DX, BX
	XORQ      $0xFF, BX
	MOVQ      BX, 16(AX)
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
