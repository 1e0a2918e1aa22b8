package qc

import (
	"math/rand"
	"testing"

	"gnumap/internal/genome"
)

// BenchmarkSummarizeCoverage walks a 1 Mbp NORM accumulator a tenth of
// which is covered, the shape of the repo benchmark's wide-k20-w1.
func BenchmarkSummarizeCoverage(b *testing.B) {
	const n = 1 << 20
	acc, err := genome.New(genome.Norm, n)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	col := make([]genome.Vec, 62)
	for i := range col {
		col[i] = genome.Vec{0.9, 0.05, 0.03, 0.01, 0.01}
	}
	for i := 0; i < n/620; i++ {
		acc.AddRange(rng.Intn(n-62), col, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SummarizeCoverage(acc, 64)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/pos")
}
