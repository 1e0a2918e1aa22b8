//go:build amd64

package snp

import (
	"math"
	"unsafe"

	"gnumap/internal/cpu"
	"gnumap/internal/dna"
	"gnumap/internal/lrt"
)

// The AVX2 prescreen kernel classifies 8 positions per iteration
// straight off the five float32 planes: validity and max/compare logic
// in packed float32, depth accumulation in packed float64 with the
// scalar sweep's conversion-and-add order, and the diploid
// minor-fraction ratio in packed float64 — every compare resolves
// exactly as prescreenSkip's (see screen_amd64.s). Packed IEEE-754 ops
// round identically to scalar ones and nothing is contracted into an
// FMA, so the two mask bytes per block are bit-identical to the
// portable kernel's, which runs the scalar rule lane by lane; the
// property tests compare both with the scalar code.

// maxFinite32 is the largest finite float32; kernel lanes outside
// [0, maxFinite32] are invalid (negative, NaN or ±Inf — NaN fails
// both ordered compares) and are kept, so lrt.Test reports them.
const maxFinite32 = float32(math.MaxFloat32)

// screen8 carries one prescreen sweep's operands to assembly. Field
// offsets are fixed by the 8-byte layout and asserted below; the .s
// file indexes them by constant.
type screen8 struct {
	p0, p1, p2, p3, p4 *float32  // +0..+32: channel planes at the window start
	refc               *dna.Code // +40: reference codes, one byte per position
	out                *uint8    // +48: tested/keep bytes, 2 per block
	blocks             int64     // +56
	minDepth           float64   // +64
	hetFrac            float64   // +72
	diploid            int64     // +80: 1 when ploidy is diploid
	hetOn              int64     // +88: 1 when hetFrac > 0
	maxf               float32   // +96: math.MaxFloat32 (validity upper bound)
}

// Compile-time layout assertions: a non-zero difference makes the array
// length negative and the package fails to build.
var (
	_ [unsafe.Offsetof(screen8{}.refc) - 40]struct{}
	_ [unsafe.Offsetof(screen8{}.out) - 48]struct{}
	_ [unsafe.Offsetof(screen8{}.blocks) - 56]struct{}
	_ [unsafe.Offsetof(screen8{}.minDepth) - 64]struct{}
	_ [unsafe.Offsetof(screen8{}.diploid) - 80]struct{}
	_ [unsafe.Offsetof(screen8{}.maxf) - 96]struct{}
)

//go:noescape
func prescreenBlocksAVX2(a *screen8)

// prescreenBlocksSIMD runs the AVX2 kernel when the host supports it,
// reporting false (untouched out) otherwise so the caller falls back
// to the generic loop.
func prescreenBlocksSIMD(planes *[dna.NumChannels][]float32, start int, refc []dna.Code, out []uint8, blocks int, cfg *Config) bool {
	if !cpu.HasAVX2 {
		return false
	}
	if blocks == 0 {
		return true
	}
	a := screen8{
		p0:       &planes[0][start],
		p1:       &planes[1][start],
		p2:       &planes[2][start],
		p3:       &planes[3][start],
		p4:       &planes[4][start],
		refc:     &refc[0],
		out:      &out[0],
		blocks:   int64(blocks),
		minDepth: cfg.MinDepth,
		hetFrac:  cfg.MinHetMinorFraction,
		maxf:     maxFinite32,
	}
	if cfg.Ploidy == lrt.Diploid {
		a.diploid = 1
	}
	if cfg.MinHetMinorFraction > 0 {
		a.hetOn = 1
	}
	prescreenBlocksAVX2(&a)
	return true
}
