// Package cpu holds the one runtime CPU-feature probe the hand-written
// kernels (internal/phmm batched rows, internal/snp prescreen) dispatch
// on.
package cpu

// HasAVX2 reports whether the CPU supports AVX2 and the OS preserves
// YMM state across context switches.
var HasAVX2 = detectAVX2()

// cpuidex and xgetbv0 are implemented in cpu_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

func detectAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7&(1<<5) != 0
}
