//go:build amd64

package phmm

import "unsafe"

// The AVX2 row kernels below vectorize the batched sweeps across the 8
// lanes of a simdLanes-wide batch: one iteration of the assembly loop
// advances all 8 lanes by one cell using 4-wide VMULPD/VADDPD pairs.
// Packed IEEE-754 multiply, add, subtract and divide round identically
// to their scalar counterparts and Go never contracts a*b+c into an FMA,
// so as long as the expression *tree* matches the generic Go loop (it
// does, operation for operation — see batch_amd64.s), the vector path is
// bit-identical to both the generic path and the scalar kernel in
// align.go. The bit-exactness property tests exercise all three against
// each other.

// simdLanes is the lane count the assembly kernels are specialized for.
const simdLanes = 8

// fwdRow8 carries one forward row — its emission table, the sweep over
// [lo, hi] and the row's tail — to assembly. Field offsets are fixed by
// the layout and asserted below; the .s file indexes them by constant.
type fwdRow8 struct {
	outM, outX, outY    *float64 // +0, +8, +16: &plane[(cur+lo)*8]
	ps                  *float64 // +24: &pstar[(cur+lo)*8], written for the backward pass
	prevM, prevX, prevY *float64 // +32, +40, +48: &plane[(prev+lo)*8]
	codes               *int32   // +56: &codes[(lo-1)*8]
	pw                  *float64 // +64: &pw[(i-1)*32]: the row's 8 PWM rows
	emit                *float64 // +72: &BatchAligner.emit[0][0]
	scale               *float64 // +80: &scale[i*8]
	steps               int64    // +88: hi - lo + 1
	guard               int64    // +96: non-zero when hi < m (zero column hi+1)
	// dead is all ones for a dead lane; the kernel ORs in rs <= 0.
	dead [simdLanes]uint64 // +104
	// tab is the row's emission table, tab[v*8+l] for v = A, C, G, T,
	// ambiguous: scratch the kernel fills and gathers from.
	tab                [5 * simdLanes]float64 // +168
	tmm, tgm, tmg, tgg [4]float64             // +488, +520, +552, +584
	q, rowEntry        [4]float64             // +616, +648
}

// bwdRow8 carries one backward row (descending j, column m and both
// guards included) to assembly.
type bwdRow8 struct {
	outM, outX, outY     *float64 // +0, +8, +16: &plane[(cur+hi)*8]
	nextM, nextX         *float64 // +24, +32: &bM/&bX[(next+hi)*8]
	ps                   *float64 // +40: &pstar[(next+hi)*8]
	scale                *float64 // +48: &scale[(i+1)*8]
	steps                int64    // +56: hi - lo + 1
	atM                  int64    // +64: non-zero when hi == m
	tmm, tgm, tmgq, tggq float64  // +72, +80, +88, +96
}

// logSum8 carries a batch's log-likelihood sum to assembly.
type logSum8 struct {
	rows *float64 // +0: &scale[8]: rows 1..n, 8 lanes each
	n    int64    // +8
	bad  int64    // +16: out: bit l set when lane l met a value <= 0, ±Inf or NaN
	// sum holds each lane's terminal sum on entry and its
	// log-likelihood on return.
	sum [simdLanes]float64 // +24
}

// zRow8 carries one row of posterior extraction to assembly.
type zRow8 struct {
	fM, bM, fY, bY *float64 // +0, +8, +16, +24: &plane[(cur+lo)*8]
	z              *float64 // +32: &zs[(lo-1)*5*8]
	wt             *float64 // +40: the row's 4x8 attribution weights, wt[k*8+l]
	inv            *float64 // +48: 1/lScaled per lane (0 for a dead lane)
	steps          int64    // +56: hi - lo + 1
}

// Compile-time layout assertions: an offset other than the one the .s
// file uses is an out-of-range constant index and fails the build.
var (
	_ = [1]struct{}{}[unsafe.Offsetof(fwdRow8{}.guard)-96]
	_ = [1]struct{}{}[unsafe.Offsetof(fwdRow8{}.dead)-104]
	_ = [1]struct{}{}[unsafe.Offsetof(fwdRow8{}.tab)-168]
	_ = [1]struct{}{}[unsafe.Offsetof(fwdRow8{}.tmm)-488]
	_ = [1]struct{}{}[unsafe.Offsetof(fwdRow8{}.rowEntry)-648]
	_ = [1]struct{}{}[unsafe.Offsetof(bwdRow8{}.atM)-64]
	_ = [1]struct{}{}[unsafe.Offsetof(bwdRow8{}.tggq)-96]
	_ = [1]struct{}{}[unsafe.Offsetof(logSum8{}.sum)-24]
	_ = [1]struct{}{}[unsafe.Offsetof(zRow8{}.z)-32]
	_ = [1]struct{}{}[unsafe.Offsetof(zRow8{}.steps)-56]
)

//go:noescape
func forwardRowAVX2(a *fwdRow8)

//go:noescape
func backwardRowAVX2(a *bwdRow8)

//go:noescape
func logLikAVX2(a *logSum8)

//go:noescape
func extractRowAVX2(a *zRow8)
