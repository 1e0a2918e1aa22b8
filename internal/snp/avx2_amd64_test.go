//go:build amd64

package snp

import (
	"testing"

	"gnumap/internal/cpu"
)

// setAVX2 points the prescreen dispatch at the AVX2 (on) or the
// portable kernel for the rest of the test, so one AVX2 host covers
// both. It reports false when the host cannot run the asked-for kernel.
func setAVX2(t testing.TB, on bool) bool {
	if on && !cpu.HasAVX2 {
		return false
	}
	was := cpu.HasAVX2
	cpu.HasAVX2 = on
	t.Cleanup(func() { cpu.HasAVX2 = was })
	return true
}
