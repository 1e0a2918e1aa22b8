//go:build amd64

package phmm

import "unsafe"

// The AVX2 row kernels below vectorize the batched sweeps across the 8
// lanes of a simdLanes-wide batch: one iteration of the assembly loop
// advances all 8 lanes by one cell using 4-wide VMULPD/VADDPD pairs.
// Packed IEEE-754 multiply and add round identically to their scalar
// counterparts and Go never contracts a*b+c into an FMA, so as long as
// the expression *tree* matches the generic Go loop (it does, operation
// for operation — see batch_amd64.s), the vector path is bit-identical
// to both the generic path and the scalar kernel in align.go. The
// bit-exactness property tests exercise all three against each other.

// simdLanes is the lane count the assembly kernels are specialized for.
const simdLanes = 8

// fwdRow8 carries one forward row sweep's operands to assembly. Field
// offsets are fixed by the 8-byte layout and asserted below; the .s
// file indexes them by constant.
type fwdRow8 struct {
	outM, outX, outY    *float64 // +0, +8, +16: &plane[(cur+lo)*8]
	ps                  *float64 // +24: &pstar[(cur+lo)*8]
	prevM, prevX, prevY *float64 // +32, +40, +48: &plane[(prev+lo)*8]
	rs                  *float64 // +56: &rowSum[0] (8 lanes, read-modify-write)
	steps               int64    // +64: hi - lo + 1
	tmm, tgm, tmg, tgg  float64  // +72, +80, +88, +96
	q, rowEntry         float64  // +104, +112
}

// scaleRow8 rescales one row's three planes by the per-lane inverse.
type scaleRow8 struct {
	pM, pX, pY *float64 // +0, +8, +16: &plane[(cur+lo)*8]
	inv        *float64 // +24: &inv[0] (8 lanes)
	steps      int64    // +32: hi - lo + 1
}

// bwdRow8 carries one backward row sweep (descending j) to assembly.
type bwdRow8 struct {
	outM, outX, outY     *float64 // +0, +8, +16: &plane[(cur+start)*8]
	nextM, nextX         *float64 // +24, +32: &bM/&bX[(next+start)*8]
	ps                   *float64 // +40: &pstar[(next+start)*8]
	iv                   *float64 // +48: &inv[0] (8 lanes)
	steps                int64    // +56: start - lo + 1
	tmm, tgm, tmgq, tggq float64  // +64, +72, +80, +88
}

// zRow8 carries one row of posterior extraction to assembly.
type zRow8 struct {
	fM, bM, fY, bY *float64 // +0, +8, +16, +24: &plane[(cur+lo)*8]
	z              *float64 // +32: &zs[(lo-1)*5*8]
	wt             *float64 // +40: the row's 4x8 attribution weights, wt[k*8+l]
	inv            *float64 // +48: 1/lScaled per lane (0 for a dead lane)
	steps          int64    // +56: hi - lo + 1
}

// Compile-time layout assertions: a non-zero difference makes the array
// length negative and the package fails to build.
var (
	_ [unsafe.Offsetof(fwdRow8{}.rs) - 56]struct{}
	_ [unsafe.Offsetof(fwdRow8{}.steps) - 64]struct{}
	_ [unsafe.Offsetof(fwdRow8{}.rowEntry) - 112]struct{}
	_ [unsafe.Offsetof(scaleRow8{}.steps) - 32]struct{}
	_ [unsafe.Offsetof(bwdRow8{}.iv) - 48]struct{}
	_ [unsafe.Offsetof(bwdRow8{}.tggq) - 88]struct{}
	_ [unsafe.Offsetof(zRow8{}.z) - 32]struct{}
	_ [unsafe.Offsetof(zRow8{}.steps) - 56]struct{}
)

//go:noescape
func forwardRowAVX2(a *fwdRow8)

//go:noescape
func scaleRowAVX2(a *scaleRow8)

//go:noescape
func backwardRowAVX2(a *bwdRow8)

//go:noescape
func extractRowAVX2(a *zRow8)
