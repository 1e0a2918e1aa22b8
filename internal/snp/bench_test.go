package snp

import (
	"fmt"
	"runtime"
	"testing"

	"gnumap/internal/lrt"
)

// BenchmarkCollectRange is the calling sweep's worker ladder at every
// worker count this host can really run in parallel, plus one serial row
// of the scalar loop (the vectorized sweep's oracle) for scale. The
// vector rows dispatch VectorKernel(); one op is one one-shot tile sweep
// of the fixture (a fresh IncrementalCaller), reported per position.
func BenchmarkCollectRange(b *testing.B) {
	const length = 400_000
	ref, acc := bigFixture(b, length, 42)
	run := func(name string, sweep func() error) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := sweep(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/length, "ns/pos")
		})
	}
	run("sweep=scalar/workers=1", func() error {
		_, _, err := collectRange(ref, acc, 0, 0, length, Config{Ploidy: lrt.Diploid}, false)
		return err
	})
	for workers := 1; workers <= runtime.NumCPU(); workers++ {
		cfg := Config{Ploidy: lrt.Diploid, CallWorkers: workers}
		run(fmt.Sprintf("sweep=vector/workers=%d", workers), func() error {
			ic, err := NewIncrementalCaller(ref, acc, 0, cfg)
			if err == nil {
				_, _, err = ic.Candidates()
			}
			return err
		})
	}
}
