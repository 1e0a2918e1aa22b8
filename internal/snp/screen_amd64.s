//go:build amd64

#include "textflag.h"

// AVX2 calling prescreen: 8 positions per iteration, classified into
// two mask bytes (tested, keep) per block. The loop makes prescreenSkip's
// decisions — float32 compares for validity and the max/compare screen,
// float64 conversion + adds (in channel order) for depth, float64
// division for the diploid minor-fraction ratio — so the masks are
// bit-identical to the portable kernel's, which runs the scalar
// prescreen lane by lane. No FMA, no reassociation.
//
// Register plan (R14/X15 untouched — reserved by the Go ABI):
//   AX          &screen8
//   R8..R12     plane pointers p0..p4 (advance 32 bytes/block)
//   R13         refc pointer (advance 8)
//   DI          out pointer (advance 2)
//   CX          remaining blocks
//   BX,DX,SI,R15  GP scratch (mask combining)
//   Y0  zero (float32 0.0 and int32 0, same bits)
//   Y1  maxf broadcast (float32)
//   Y2  minDepth broadcast (float64)
//   Y3  hetFrac broadcast (float64)
//   Y4,Y5,Y6  int32 broadcasts 3, 1, 2 (reference-code compares)
//   Y8  codes (8 × int32, zero-extended from refc bytes)
//   Y9  valid accumulator
//   Y10 vr, then m = max(vr, v4)
//   Y11 bmax (max non-{ref,gap} channel, 0 where masked)
//   Y12 depth lanes 0-3 (float64)   Y13 depth lanes 4-7
//   Y7,Y14 scratch

// func prescreenBlocksAVX2(a *screen8)
TEXT ·prescreenBlocksAVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), R8    // p0
	MOVQ 8(AX), R9    // p1
	MOVQ 16(AX), R10  // p2
	MOVQ 24(AX), R11  // p3
	MOVQ 32(AX), R12  // p4
	MOVQ 40(AX), R13  // refc
	MOVQ 48(AX), DI   // out
	MOVQ 56(AX), CX   // blocks

	VXORPS       Y0, Y0, Y0
	VBROADCASTSS 96(AX), Y1 // maxf
	VBROADCASTSD 64(AX), Y2 // minDepth
	VBROADCASTSD 72(AX), Y3 // hetFrac
	MOVQ         $3, BX
	VMOVQ        BX, X4
	VPBROADCASTD X4, Y4
	MOVQ         $1, BX
	VMOVQ        BX, X5
	VPBROADCASTD X5, Y5
	MOVQ         $2, BX
	VMOVQ        BX, X6
	VPBROADCASTD X6, Y6

blockloop:
	VPMOVZXBD (R13), Y8 // 8 reference codes → int32 lanes

	// Channel 0 (A): validity, depth init, vr/bmax init.
	VMOVUPS      (R8), Y14
	VCMPPS       $0x1D, Y0, Y14, Y7 // v >= 0 (GE_OQ)
	VCMPPS       $0x12, Y1, Y14, Y9 // v <= maxf (LE_OQ)
	VANDPS       Y7, Y9, Y9
	VCVTPS2PD    X14, Y12           // depth = float64(v0), lanes 0-3
	VEXTRACTF128 $1, Y14, X7
	VCVTPS2PD    X7, Y13            // lanes 4-7
	VPCMPEQD     Y0, Y8, Y7         // code == 0
	VANDNPS      Y14, Y7, Y11       // bmax = v0 where code != 0, else 0
	VXORPS       Y11, Y14, Y10      // vr = v0 where code == 0, else 0

	// Channel 1 (C).
	VMOVUPS      (R9), Y14
	VCMPPS       $0x1D, Y0, Y14, Y7
	VANDPS       Y7, Y9, Y9
	VCMPPS       $0x12, Y1, Y14, Y7
	VANDPS       Y7, Y9, Y9
	VCVTPS2PD    X14, Y7
	VADDPD       Y7, Y12, Y12       // depth += float64(v1)
	VEXTRACTF128 $1, Y14, X7
	VCVTPS2PD    X7, Y7
	VADDPD       Y7, Y13, Y13
	VPCMPEQD     Y5, Y8, Y7         // code == 1
	VANDNPS      Y14, Y7, Y7        // v1 where code != 1, else 0
	VMAXPS       Y7, Y11, Y11
	VXORPS       Y14, Y7, Y7        // v1 where code == 1, else 0
	VORPS        Y7, Y10, Y10

	// Channel 2 (G).
	VMOVUPS      (R10), Y14
	VCMPPS       $0x1D, Y0, Y14, Y7
	VANDPS       Y7, Y9, Y9
	VCMPPS       $0x12, Y1, Y14, Y7
	VANDPS       Y7, Y9, Y9
	VCVTPS2PD    X14, Y7
	VADDPD       Y7, Y12, Y12
	VEXTRACTF128 $1, Y14, X7
	VCVTPS2PD    X7, Y7
	VADDPD       Y7, Y13, Y13
	VPCMPEQD     Y6, Y8, Y7         // code == 2
	VANDNPS      Y14, Y7, Y7
	VMAXPS       Y7, Y11, Y11
	VXORPS       Y14, Y7, Y7
	VORPS        Y7, Y10, Y10

	// Channel 3 (T).
	VMOVUPS      (R11), Y14
	VCMPPS       $0x1D, Y0, Y14, Y7
	VANDPS       Y7, Y9, Y9
	VCMPPS       $0x12, Y1, Y14, Y7
	VANDPS       Y7, Y9, Y9
	VCVTPS2PD    X14, Y7
	VADDPD       Y7, Y12, Y12
	VEXTRACTF128 $1, Y14, X7
	VCVTPS2PD    X7, Y7
	VADDPD       Y7, Y13, Y13
	VPCMPEQD     Y4, Y8, Y7         // code == 3
	VANDNPS      Y14, Y7, Y7
	VMAXPS       Y7, Y11, Y11
	VXORPS       Y14, Y7, Y7
	VORPS        Y7, Y10, Y10

	// Channel 4 (gap): validity, depth, m = max(vr, v4).
	VMOVUPS      (R12), Y14
	VCMPPS       $0x1D, Y0, Y14, Y7
	VANDPS       Y7, Y9, Y9
	VCMPPS       $0x12, Y1, Y14, Y7
	VANDPS       Y7, Y9, Y9
	VCVTPS2PD    X14, Y7
	VADDPD       Y7, Y12, Y12
	VEXTRACTF128 $1, Y14, X7
	VCVTPS2PD    X7, Y7
	VADDPD       Y7, Y13, Y13
	VMAXPS       Y14, Y10, Y10      // m

	// Diploid minor-fraction ratio: float64(bmax)/depth < hetFrac,
	// computed only when the clause can matter (diploid && hetOn);
	// its lanes are otherwise dead under the mask algebra below.
	XORQ  BX, BX
	MOVQ  80(AX), SI // diploid
	TESTQ SI, SI
	JZ    noratio
	MOVQ  88(AX), SI // hetOn
	TESTQ SI, SI
	JZ    noratio
	VCVTPS2PD    X11, Y7
	VDIVPD       Y12, Y7, Y7        // float64(bmax) / depth, lanes 0-3
	VCMPPD       $0x11, Y3, Y7, Y7  // ratio < hetFrac (LT_OQ)
	VMOVMSKPD    Y7, BX
	VEXTRACTF128 $1, Y11, X7
	VCVTPS2PD    X7, Y7
	VDIVPD       Y13, Y7, Y7
	VCMPPD       $0x11, Y3, Y7, Y7
	VMOVMSKPD    Y7, SI
	SHLQ         $4, SI
	ORQ          SI, BX             // ratioM

noratio:
	// skip = valid & (nc | (skipA & (notDip | zeroB | ratioM))).
	VCMPPS    $0x00, Y0, Y11, Y7 // bmax == 0 (EQ_OQ)
	VMOVMSKPS Y7, SI
	ORQ       SI, BX
	MOVQ      80(AX), SI
	DECQ      SI                 // diploid: 1 → 0, 0 → all-ones
	ORQ       SI, BX             // dipTerm
	VCMPPS    $0x11, Y10, Y11, Y7 // bmax < m (LT_OQ)
	VMOVMSKPS Y7, SI
	ANDQ      SI, BX             // skipA & dipTerm (also clamps to 8 bits)
	VPCMPGTD  Y4, Y8, Y7         // code > 3: non-concrete reference
	VMOVMSKPS Y7, SI
	ORQ       SI, BX
	VMOVMSKPS Y9, DX             // validM
	ANDQ      DX, BX             // skipM

	// tested = !(depth < minDepth); NaN depth passes, as in Go.
	VCMPPD    $0x11, Y2, Y12, Y7
	VMOVMSKPD Y7, SI
	VCMPPD    $0x11, Y2, Y13, Y7
	VMOVMSKPD Y7, R15
	SHLQ      $4, R15
	ORQ       R15, SI
	NOTQ      SI
	ANDQ      $0xFF, SI          // testedM

	NOTQ BX
	ANDQ SI, BX // keepM = testedM &^ skipM

	MOVB SI, (DI)
	MOVB BX, 1(DI)

	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $8, R13
	ADDQ $2, DI
	DECQ CX
	JNZ  blockloop

	VZEROUPPER
	RET
