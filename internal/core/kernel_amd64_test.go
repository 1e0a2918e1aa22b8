//go:build amd64

package core

import (
	"testing"

	"gnumap/internal/cpu"
)

// setKernel points the Pair-HMM row dispatch at the named kernel —
// "avx512", "avx2" or "generic" (the Go rows) — for the rest of the
// test, so one AVX-512 host covers all three. It reports false when the
// host cannot run the asked-for kernel.
func setKernel(t testing.TB, kernel string) bool {
	was512, was2 := cpu.HasAVX512, cpu.HasAVX2
	switch kernel {
	case "avx512":
		if !was512 {
			return false
		}
	case "avx2":
		if !was2 {
			return false
		}
		cpu.HasAVX512 = false
	case "generic":
		cpu.HasAVX512, cpu.HasAVX2 = false, false
	default:
		t.Fatalf("unknown kernel %q", kernel)
	}
	t.Cleanup(func() { cpu.HasAVX512, cpu.HasAVX2 = was512, was2 })
	return true
}
