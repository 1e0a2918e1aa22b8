//go:build amd64

package core

import (
	"testing"

	"gnumap/internal/cpu"
)

// setAVX2 points the Pair-HMM row dispatch at the AVX2 (on) or the Go
// rows for the rest of the test. It reports false when the host cannot
// run the asked-for kernel.
func setAVX2(t testing.TB, on bool) bool {
	if on && !cpu.HasAVX2 {
		return false
	}
	was := cpu.HasAVX2
	cpu.HasAVX2 = on
	t.Cleanup(func() { cpu.HasAVX2 = was })
	return true
}
