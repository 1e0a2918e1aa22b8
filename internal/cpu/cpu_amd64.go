// Package cpu holds the runtime CPU-feature probes the hand-written
// kernels (internal/phmm batched rows, internal/snp prescreen) dispatch
// on.
package cpu

// HasAVX2 reports whether the CPU supports AVX2 and the OS preserves
// YMM state across context switches.
var HasAVX2 = detectAVX2()

// HasAVX512 reports whether the CPU supports AVX-512 F and DQ and the OS
// preserves opmask and ZMM state across context switches.
var HasAVX512 = detectAVX512()

// cpuidex and xgetbv0 are implemented in cpu_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// extended reports whether CPUID leaf 7 exists and the OS has enabled
// XSAVE with every state component in xcr0 (XCR0's low word); it
// returns leaf 7's EBX, the AVX2 and AVX-512 feature bits.
func extended(xcr0 uint32) (ebx7 uint32, ok bool) {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return 0, false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return 0, false
	}
	if lo, _ := xgetbv0(); lo&xcr0 != xcr0 {
		return 0, false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7, true
}

func detectAVX2() bool {
	b7, ok := extended(0x6) // SSE and AVX (YMM) state
	return ok && b7&(1<<5) != 0
}

func detectAVX512() bool {
	const f, dq = 1 << 16, 1 << 17
	b7, ok := extended(0xE6) // SSE, AVX, opmask, ZMM0-15 upper halves, ZMM16-31
	return ok && b7&f != 0 && b7&dq != 0
}
