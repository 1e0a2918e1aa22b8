package genome

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkAddRange measures the per-mode cost of the accumulation hot
// path: one 62-position read contribution.
func BenchmarkAddRange(b *testing.B) {
	zs := make([]Vec, 62)
	for i := range zs {
		zs[i] = Vec{0.9, 0.05, 0.03, 0.02, 0}
	}
	for _, mode := range allModes() {
		b.Run(mode.String(), func(b *testing.B) {
			acc, err := New(mode, 100_000)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.AddRange((i*977)%(100_000-70), zs, 1)
			}
		})
	}
}

// BenchmarkAccumulatorContention times AddRange on the one striped
// accumulator under 1/2/4/8 concurrent writers, and once on its
// lock-free twin with a single writer. striped-w1 minus unlocked-w1 is
// what the stripe locks cost per range — the number the write-strategy
// question reduced to (DESIGN §11), and the one a fixed-point mass
// representation must not make worse.
func BenchmarkAccumulatorContention(b *testing.B) {
	const genomeLen = 100_000
	zs := make([]Vec, 62)
	for i := range zs {
		zs[i] = Vec{0.9, 0.05, 0.03, 0.02, 0}
	}
	run := func(b *testing.B, workers int, acc Accumulator, err error) {
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Interleaved positions: all workers touch all stripes,
				// the worst case for striped locking.
				for i := 0; i < b.N; i++ {
					acc.AddRange(((i*workers+w)*977)%(genomeLen-70), zs, 1)
				}
			}(w)
		}
		wg.Wait()
		b.ReportMetric(float64(b.N*workers)/b.Elapsed().Seconds(), "adds/s")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("striped-w%d", workers), func(b *testing.B) {
			acc, err := New(Norm, genomeLen)
			run(b, workers, acc, err)
		})
	}
	b.Run("unlocked-w1", func(b *testing.B) {
		acc, err := newUnlocked(Norm, genomeLen)
		run(b, 1, acc, err)
	})
}

func BenchmarkMerge(b *testing.B) {
	zs := make([]Vec, 62)
	for i := range zs {
		zs[i] = Vec{0.9, 0.05, 0.03, 0.02, 0}
	}
	for _, mode := range allModes() {
		b.Run(mode.String(), func(b *testing.B) {
			src, err := New(mode, 100_000)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				src.AddRange((i*977)%(100_000-70), zs, 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, err := New(mode, 100_000)
				if err != nil {
					b.Fatal(err)
				}
				if err := dst.Merge(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
