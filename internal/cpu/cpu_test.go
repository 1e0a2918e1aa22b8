package cpu

import (
	"os"
	"regexp"
	"testing"
)

// cpuinfoFlags returns the first flags line of /proc/cpuinfo, skipping
// the test where there is none.
func cpuinfoFlags(t *testing.T) []byte {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	flags := regexp.MustCompile(`(?m)^flags\s*:.*$`).Find(data)
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	return flags
}

// The kernel's own view of the CPU is the only independent witness the
// standard library leaves reachable: where /proc/cpuinfo exists, its
// avx2 flag (which Linux only sets when it also saves YMM state) must
// agree with the probe.
func TestHasAVX2MatchesCPUInfo(t *testing.T) {
	want := regexp.MustCompile(`\bavx2\b`).Match(cpuinfoFlags(t))
	if HasAVX2 != want {
		t.Errorf("HasAVX2 = %v, /proc/cpuinfo says avx2 = %v", HasAVX2, want)
	}
}

// Likewise Linux lists avx512f and avx512dq only when it saves the
// opmask and ZMM state, so the two flags together must agree with the
// AVX-512 probe.
func TestHasAVX512MatchesCPUInfo(t *testing.T) {
	flags := cpuinfoFlags(t)
	want := regexp.MustCompile(`\bavx512f\b`).Match(flags) && regexp.MustCompile(`\bavx512dq\b`).Match(flags)
	if HasAVX512 != want {
		t.Errorf("HasAVX512 = %v, /proc/cpuinfo says avx512f && avx512dq = %v", HasAVX512, want)
	}
}
