package snp

import (
	"math"
	"math/bits"

	"gnumap/internal/cpu"
	"gnumap/internal/dna"
	"gnumap/internal/genome"
	"gnumap/internal/lrt"
)

// The plane-streaming vectorized calling sweep.
//
// The scalar sweep (collectScalar's per-position loop) gathers a
// [5]float64 vector, sums its depth, screens it, and only rarely — at
// loci with a variant signal — pays for lrt.Test. The vectorized path
// restructures exactly that work around the frozen NORM planes
// (genome.Frozen.PlaneWindow): a kernel classifies 8 positions per
// lane-block straight off the contiguous float32 planes, surviving
// positions are gathered into dense batches, and their log-likelihoods
// are evaluated through lrt.TestBatch. An AVX2 kernel
// (screen_amd64.s) runs beside the generic Go loop behind the same
// runtime cpuid dispatch the batched PHMM uses.
//
// Bit-identity by construction. The kernel makes the scalar sweep's
// *decisions*, not an approximation of them:
//
//   - depth is accumulated in float64, converting each float32 plane
//     value and adding in channel order k=0..4 — the scalar sweep's
//     exact expression tree — so the `depth < MinDepth` test (NaN
//     depth passes, matching Go's compare) is the same float compare
//     on the same bits;
//   - the prescreen's max/compare logic (prescreen.go's theorem) runs
//     on the raw float32 values; float32→float64 conversion is exact
//     and monotone, so every compare resolves identically to the
//     scalar screen's float64 version, and the diploid minor-fraction
//     ratio is divided in float64 from the same converted operands;
//   - survivors re-read their five plane values through the identical
//     conversion into lrt.TestBatch, which runs Test's expression tree
//     per element (literally the same code), and candidates are
//     appended in genome order before the single global FinalizeCalls
//     pass.
//
// Invalid lanes (a negative, NaN or Inf channel) are never screened
// out; the sweep surfaces the same lrt validation error, at the same
// position, with the same partial Stats as the scalar path.

// screenLanes is the position count each kernel block classifies; the
// AVX2 kernel is specialized for 8-wide float32 lanes.
const screenLanes = 8

// screenMaskBytes is the size of one block's classification record in
// the kernel's out buffer: tested, keep, valid bitmask bytes (bit i =
// lane i).
const screenMaskBytes = 3

// screenTileBlocks bounds the blocks classified per kernel call, so
// the mask scratch stays cache-resident regardless of sweep length.
const screenTileBlocks = 512

// lrtBatchSize is the dense survivor batch handed to lrt.TestBatch.
const lrtBatchSize = 64

// maxFinite32 is the largest finite float32; kernel lanes outside
// [0, maxFinite32] are invalid (negative, NaN or ±Inf — NaN fails
// both ordered compares) and must reach lrt.Test for its error.
const maxFinite32 = float32(math.MaxFloat32)

// VectorKernel reports which prescreen kernel the vectorized sweep
// dispatches on this host: "avx2" when the cpuid probe (CPU AVX2 + OS
// YMM state support) passes, "generic" otherwise. Benchmarks stamp it
// on their rows so cross-host comparisons don't silently mix code
// paths.
func VectorKernel() string {
	if cpu.HasAVX2 {
		return "avx2"
	}
	return "generic"
}

// vectorEligible reports whether the plane-streaming sweep can replace
// the scalar loop: the prescreen is not bypassed (the test-only
// exhaustive sweep stays scalar) and the frozen view exposes NORM
// channel planes.
func vectorEligible(cfg *Config, fz *genome.Frozen) bool {
	return !cfg.noPrescreen && fz != nil && fz.Mode() == genome.Norm
}

// prescreenBlocks classifies blocks×8 consecutive positions, writing
// one screenMaskBytes record per block into out: tested (depth-passing
// lanes), keep (lanes needing lrt.Test: screen survivors plus invalid
// vectors), valid (lanes with all-finite non-negative channels).
// start indexes the planes; refc holds the same positions' reference
// codes. Dispatches to the AVX2 kernel when the host supports it.
func prescreenBlocks(planes *[dna.NumChannels][]float32, start int, refc []dna.Code, out []uint8, blocks int, minDepth, hetFrac float64, diploid bool) {
	if prescreenBlocksSIMD(planes, start, refc, out, blocks, minDepth, hetFrac, diploid) {
		return
	}
	prescreenBlocksGeneric(planes, start, refc, out, blocks, minDepth, hetFrac, diploid)
}

// prescreenBlocksGeneric is the portable kernel: the same lane-block
// structure as the assembly, in plain Go. Every decision mirrors the
// scalar sweep exactly (see the package comment above); the AVX2
// kernel in turn mirrors this loop operation for operation, and the
// property tests compare all three.
func prescreenBlocksGeneric(planes *[dna.NumChannels][]float32, start int, refc []dna.Code, out []uint8, blocks int, minDepth, hetFrac float64, diploid bool) {
	hetOn := hetFrac > 0
	for b := 0; b < blocks; b++ {
		var testedM, keepM, validM uint8
		off := start + b*screenLanes
		for lane := 0; lane < screenLanes; lane++ {
			pos := off + lane
			v0 := planes[0][pos]
			v1 := planes[1][pos]
			v2 := planes[2][pos]
			v3 := planes[3][pos]
			v4 := planes[4][pos]

			// Validity in float32: conversion to float64 preserves
			// negative/NaN/Inf, so these ordered compares decide exactly
			// what prescreenSkip's float64 checks decide.
			valid := v0 >= 0 && v0 <= maxFinite32 &&
				v1 >= 0 && v1 <= maxFinite32 &&
				v2 >= 0 && v2 <= maxFinite32 &&
				v3 >= 0 && v3 <= maxFinite32 &&
				v4 >= 0 && v4 <= maxFinite32

			// Depth in float64, the scalar sweep's exact summation: each
			// float32 converted, then added in channel order.
			d := float64(v0) + float64(v1)
			d += float64(v2)
			d += float64(v3)
			d += float64(v4)
			tested := !(d < minDepth) // NaN depth passes, as in the scalar sweep

			skip := false
			if valid {
				code := refc[b*screenLanes+lane]
				if !code.IsConcrete() {
					skip = true // reference N: isSNP is always false
				} else {
					// prescreenSkip's m and b on the raw float32s:
					// conversion is monotone and exact, so every compare
					// matches the scalar screen's float64 version.
					r := int(code)
					m := planes[r][pos]
					if v4 > m {
						m = v4
					}
					var bmax float32
					if r != 0 && v0 > bmax {
						bmax = v0
					}
					if r != 1 && v1 > bmax {
						bmax = v1
					}
					if r != 2 && v2 > bmax {
						bmax = v2
					}
					if r != 3 && v3 > bmax {
						bmax = v3
					}
					if bmax < m {
						switch {
						case !diploid:
							skip = true
						case bmax == 0:
							skip = true
						default:
							// Identical floats, identical strict compare
							// as the scalar screen's het-demotion clause.
							skip = hetOn && float64(bmax)/d < hetFrac
						}
					}
				}
			}
			bit := uint8(1) << lane
			if tested {
				testedM |= bit
			}
			if tested && !skip {
				keepM |= bit
			}
			if valid {
				validM |= bit
			}
		}
		out[b*screenMaskBytes+0] = testedM
		out[b*screenMaskBytes+1] = keepM
		out[b*screenMaskBytes+2] = validM
	}
}

// collectRangeVector is CollectRange's plane-streaming body: classify
// whole lane-blocks through prescreenBlocks, gather survivors into
// dense batches for lrt.TestBatch, and hand only the sub-block tail to
// the scalar sweep. Returns the candidates in genome order plus the
// tested and screened counts; on error the counts cover exactly the
// positions the scalar sweep would have processed before failing.
func collectRangeVector(ref *genome.Reference, fz *genome.Frozen, offset, from, to int, cfg *Config) ([]Candidate, int, int64, error) {
	planes, ok := fz.PlaneWindow(0, fz.Len())
	if !ok {
		// vectorEligible guarantees NORM; an impossible window is a
		// programming error, not a user input — fail loudly.
		panic("snp: vector sweep on a plane-less frozen view")
	}
	refSeq := ref.Seq()
	var (
		candidates []Candidate
		tested     int
		screened   int64
	)

	// Dense survivor batch for the lane-batched LRT.
	var (
		batchZ [lrtBatchSize]lrt.Vector
		batchG [lrtBatchSize]int
		batchD [lrtBatchSize]float64
		batchR [lrtBatchSize]lrt.Result
		nb     int
	)
	flush := func() error {
		if nb == 0 {
			return nil
		}
		if _, err := lrt.TestBatch(batchZ[:nb], cfg.Ploidy, batchR[:nb]); err != nil {
			// Unreachable for screen-validated vectors; surfaced verbatim
			// if a kernel ever mis-classifies.
			return err
		}
		for i := 0; i < nb; i++ {
			tested++
			g := batchG[i]
			candidates = appendCandidate(candidates, ref, g, refSeq[g], batchD[i], &batchR[i])
		}
		nb = 0
		return nil
	}
	// gather re-reads a survivor's five plane values through the scalar
	// sweep's exact conversion and summation.
	gather := func(g int) (lrt.Vector, float64) {
		pos := g - offset
		var z lrt.Vector
		for k := 0; k < dna.NumChannels; k++ {
			z[k] = float64(planes[k][pos])
		}
		depth := 0.0
		for _, x := range z {
			depth += x
		}
		return z, depth
	}

	n := to - from
	nBlocks := n / screenLanes
	var masks [screenTileBlocks * screenMaskBytes]uint8
	for t0 := 0; t0 < nBlocks; t0 += screenTileBlocks {
		tb := nBlocks - t0
		if tb > screenTileBlocks {
			tb = screenTileBlocks
		}
		g0 := from + t0*screenLanes
		prescreenBlocks(&planes, g0-offset, refSeq[g0:g0+tb*screenLanes],
			masks[:tb*screenMaskBytes], tb, cfg.MinDepth, cfg.MinHetMinorFraction, cfg.Ploidy == lrt.Diploid)
		for b := 0; b < tb; b++ {
			testedM := masks[b*screenMaskBytes+0]
			keepM := masks[b*screenMaskBytes+1]
			validM := masks[b*screenMaskBytes+2]
			if keepM == 0 {
				// The common all-screened block: nothing survives, count
				// in bulk. No keep lane means no error is possible here.
				sc := bits.OnesCount8(testedM)
				tested += sc
				screened += int64(sc)
				continue
			}
			// A block with survivors walks its lanes in genome order, so
			// an error's partial Stats match the scalar sweep exactly.
			for lane := 0; lane < screenLanes; lane++ {
				bit := uint8(1) << lane
				if testedM&bit == 0 {
					continue
				}
				if keepM&bit == 0 {
					// Screened: tested but provably uncallable.
					tested++
					screened++
					continue
				}
				g := g0 + b*screenLanes + lane
				if validM&bit == 0 {
					// Invalid vector: drain the pending (earlier) batch so
					// Stats match the scalar sweep at the error position,
					// then surface lrt.Test's own validation error.
					if err := flush(); err != nil {
						return nil, tested, screened, err
					}
					z, _ := gather(g)
					if _, err := lrt.Test(z, cfg.Ploidy); err != nil {
						return nil, tested, screened, err
					}
					// A "valid after all" lane means the kernels disagree
					// with lrt's validation — impossible by construction.
					panic("snp: screen flagged a vector lrt.Test accepts")
				}
				z, depth := gather(g)
				batchZ[nb], batchG[nb], batchD[nb] = z, g, depth
				nb++
				if nb == lrtBatchSize {
					if err := flush(); err != nil {
						return nil, tested, screened, err
					}
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, tested, screened, err
	}

	// Sub-block tail: the scalar sweep itself.
	candidates, tailTested, tailScreened, err := collectScalar(ref, fz, offset, from+nBlocks*screenLanes, to, cfg, candidates)
	return candidates, tested + tailTested, screened + tailScreened, err
}
