package cpu

import (
	"os"
	"regexp"
	"testing"
)

// The kernel's own view of the CPU is the only independent witness the
// standard library leaves reachable: where /proc/cpuinfo exists, its
// avx2 flag (which Linux only sets when it also saves YMM state) must
// agree with the probe.
func TestHasAVX2MatchesCPUInfo(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	flags := regexp.MustCompile(`(?m)^flags\s*:.*$`).Find(data)
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	want := regexp.MustCompile(`\bavx2\b`).Match(flags)
	if HasAVX2 != want {
		t.Errorf("HasAVX2 = %v, /proc/cpuinfo says avx2 = %v", HasAVX2, want)
	}
}
