package obs

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// StartProfiles creates dir if needed and starts a CPU profile into
// dir/cpu.pprof. The returned stop ends it and writes dir/heap.pprof,
// the live heap after a GC; call it once, at exit. Both files are
// standard runtime profiles for `go tool pprof`.
func StartProfiles(dir string) (stop func() error, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		heap, err := os.Create(filepath.Join(dir, "heap.pprof"))
		if err != nil {
			return err
		}
		runtime.GC() // flush dead allocations so the profile shows live heap
		if err := pprof.WriteHeapProfile(heap); err != nil {
			heap.Close()
			return err
		}
		return heap.Close()
	}, nil
}
