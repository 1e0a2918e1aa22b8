package snp

import (
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
// runs the screening half of that work straight off the frozen NORM
// planes (genome.Frozen.PlaneWindow): a kernel classifies 8 positions
// per lane-block into a tested and a keep mask, whole screened blocks
// are counted in bulk, and each surviving position goes to lrt.Test in
// genome order. An AVX2 kernel (screen_amd64.s) runs beside the
// portable Go loop behind the same runtime cpuid dispatch the batched
// PHMM uses.
//
// Bit-identity by construction. Each position is decided once, by the
// scalar sweep's rule:
//
//   - the portable kernel is that rule: per lane it converts the five
//     float32 plane values to float64 (exact), sums depth from 0 in
//     channel order, tests MinDepth and calls prescreenSkip;
//   - the AVX2 kernel makes the same decisions: depth in float64 with
//     the same conversions and adds (so a NaN depth passes, matching
//     Go's compare), the prescreen's max/compare logic on the raw
//     float32 values (conversion is exact and monotone, so every
//     compare resolves as prescreenSkip's float64 one), and the diploid
//     minor-fraction ratio divided in float64 from the same operands;
//   - survivors re-read their five plane values through the same
//     conversion into lrt.Test, and candidates are appended in genome
//     order before the single global FinalizeCalls pass.
//
// Invalid lanes (a negative, NaN or Inf channel) are never screened
// out; lrt.Test surfaces the same validation error, at the same
// position, with the same partial Stats as the scalar path.

// screenLanes is the position count each kernel block classifies; the
// AVX2 kernel is specialized for 8-wide float32 lanes.
const screenLanes = 8

// screenMaskBytes is the size of one block's classification record in
// the kernel's out buffer: tested and keep bitmask bytes (bit i =
// lane i).
const screenMaskBytes = 2

// screenTileBlocks bounds the blocks classified per kernel call, so
// the mask scratch stays cache-resident regardless of sweep length.
const screenTileBlocks = 512

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
	return !cfg.noPrescreen && fz.Mode() == genome.Norm
}

// prescreenBlocks classifies blocks×8 consecutive positions, writing
// one screenMaskBytes record per block into out: tested (depth-passing
// lanes) and keep (tested lanes prescreenSkip does not skip, invalid
// vectors included). start indexes the planes; refc holds the same
// positions' reference codes; cfg is resolved (withDefaults).
// Dispatches to the AVX2 kernel when the host supports it.
func prescreenBlocks(planes *[dna.NumChannels][]float32, start int, refc []dna.Code, out []uint8, blocks int, cfg *Config) {
	if prescreenBlocksSIMD(planes, start, refc, out, blocks, cfg) {
		return
	}
	prescreenBlocksGeneric(planes, start, refc, out, blocks, cfg)
}

// prescreenBlocksGeneric is the portable kernel: per lane, the scalar
// sweep's own decision (collectScalar's depth sum, MinDepth test and
// prescreenSkip). The AVX2 kernel must reproduce its masks bit for bit,
// and the property tests compare both with the scalar code.
func prescreenBlocksGeneric(planes *[dna.NumChannels][]float32, start int, refc []dna.Code, out []uint8, blocks int, cfg *Config) {
	for b := 0; b < blocks; b++ {
		var testedM, keepM uint8
		for lane := 0; lane < screenLanes; lane++ {
			i := b*screenLanes + lane
			v, depth := planeVector(planes, start+i)
			if depth < cfg.MinDepth {
				continue
			}
			testedM |= 1 << lane
			if !prescreenSkip(v, depth, refc[i], cfg) {
				keepM |= 1 << lane
			}
		}
		out[b*screenMaskBytes] = testedM
		out[b*screenMaskBytes+1] = keepM
	}
}

// planeVector reads one position's channel vector off the NORM planes
// and sums its depth, exactly as collectScalar does through the frozen
// view: each float32 converted, then added from 0 in channel order.
func planeVector(planes *[dna.NumChannels][]float32, pos int) (genome.Vec, float64) {
	var v genome.Vec
	depth := 0.0
	for k := range v {
		v[k] = float64(planes[k][pos])
		depth += v[k]
	}
	return v, depth
}

// collectRangeVector is CollectRange's plane-streaming body: classify
// whole lane-blocks through prescreenBlocks, test each survivor with
// lrt.Test in genome order, and hand only the sub-block tail to the
// scalar sweep. Returns the candidates in genome order plus the tested
// and screened counts; on error the counts cover exactly the positions
// the scalar sweep would have processed before failing.
func collectRangeVector(ref *genome.Reference, fz *genome.Frozen, from, to int, cfg *Config) ([]Candidate, int, int64, error) {
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
	nBlocks := (to - from) / screenLanes
	var masks [screenTileBlocks * screenMaskBytes]uint8
	for t0 := 0; t0 < nBlocks; t0 += screenTileBlocks {
		tb := min(nBlocks-t0, screenTileBlocks)
		g0 := from + t0*screenLanes
		prescreenBlocks(&planes, g0, refSeq[g0:g0+tb*screenLanes], masks[:tb*screenMaskBytes], tb, cfg)
		for b := 0; b < tb; b++ {
			testedM, keepM := masks[b*screenMaskBytes], masks[b*screenMaskBytes+1]
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
				switch {
				case testedM&bit == 0:
				case keepM&bit == 0:
					// Screened: tested but provably uncallable.
					tested++
					screened++
				default:
					g := g0 + b*screenLanes + lane
					z, depth := planeVector(&planes, g)
					res, err := lrt.Test(z, cfg.Ploidy)
					if err != nil {
						return nil, tested, screened, err
					}
					tested++
					candidates = appendCandidate(candidates, ref, g, refSeq[g], depth, &res)
				}
			}
		}
	}

	// Sub-block tail: the scalar sweep itself.
	candidates, tailTested, tailScreened, err := collectScalar(ref, fz, from+nBlocks*screenLanes, to, cfg, candidates)
	return candidates, tested + tailTested, screened + tailScreened, err
}
