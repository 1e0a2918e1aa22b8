//go:build !amd64

package cpu

// HasAVX2 is always false off amd64: the generic Go loops are the only
// kernels.
const HasAVX2 = false
