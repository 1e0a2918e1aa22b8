//go:build amd64

package phmm

import "unsafe"

// The assembly implementations of the row contract (rows.go): the AVX2
// rows (batch_amd64.s), where one iteration of each loop advances all 8
// lanes by one cell using 4-wide VMULPD/VADDPD pairs, and the AVX-512
// rows (batch512_amd64.s), where it takes one 8-wide ZMM operation.
// Packed IEEE-754 multiply, add, subtract and divide round identically
// to their scalar counterparts, and the expression trees match the Go
// rows operation for operation, so every implementation is
// bit-identical to the scalar kernel the tests keep as their oracle
// (ref_test.go). The bit-exactness property tests run all three against
// it.

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

//go:noescape
func forwardRowAVX512(a *fwdRow8)

//go:noescape
func backwardRowAVX512(a *bwdRow8)

//go:noescape
func extractRowAVX512(a *zRow8)
