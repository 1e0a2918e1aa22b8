package snp

import (
	"fmt"
	"runtime"
	"testing"

	"gnumap/internal/lrt"
)

// BenchmarkCollectRange is the calling sweep's worker ladder: both
// inner loops at every worker count this host can really run in
// parallel. The vector rows dispatch VectorKernel(); one op is one
// sweep of the fixture, reported per position.
func BenchmarkCollectRange(b *testing.B) {
	const length = 400_000
	ref, acc := bigFixture(b, length, 42)
	for _, sweep := range []string{"scalar", "vector"} {
		for workers := 1; workers <= runtime.NumCPU(); workers++ {
			cfg := Config{Ploidy: lrt.Diploid, CallWorkers: workers}
			if sweep == "scalar" {
				cfg.CallVector = -1
			}
			b.Run(fmt.Sprintf("sweep=%s/workers=%d", sweep, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := CollectRangeParallel(ref, acc, 0, 0, length, cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/length, "ns/pos")
			})
		}
	}
}
