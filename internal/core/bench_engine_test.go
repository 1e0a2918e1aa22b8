package core

import (
	"testing"

	"gnumap/internal/fastq"
	"gnumap/internal/genome"
)

// BenchmarkMapReadsEndToEnd measures whole-engine throughput on a
// 100 kbp dataset (the number EXPERIMENTS.md quotes as reads/s).
func BenchmarkMapReadsEndToEnd(b *testing.B) {
	g := makePipelineB(b, 100000, 9, 10, 91)
	eng, err := NewEngine(g.ref, Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, _ := genome.New(genome.Norm, g.ref.Len())
		if _, err := eng.MapReads(g.reads, acc, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(g.reads))*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
}

// BenchmarkMapReadsStream is BenchmarkMapReadsEndToEnd through the
// bounded streaming pipeline — the reads/s gap between the two is the
// cost of streaming (batch hand-off, free-list recycling) and should
// stay within noise of the slice path.
func BenchmarkMapReadsStream(b *testing.B) {
	g := makePipelineB(b, 100000, 9, 10, 91)
	eng, err := NewEngine(g.ref, Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, _ := genome.New(genome.Norm, g.ref.Len())
		if _, err := eng.MapReadsFrom(fastq.SliceSource(g.reads), acc, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(g.reads))*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
}

// BenchmarkMapReadSteadyState isolates the per-read mapping hot path on
// one warm mapper — the allocs/op column is the zero-allocation
// acceptance gate.
func BenchmarkMapReadSteadyState(b *testing.B) {
	g := makePipelineB(b, 30000, 4, 4, 91)
	eng, err := NewEngine(g.ref, Config{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := eng.newMapper()
	if err != nil {
		b.Fatal(err)
	}
	// Warmup grows the mapper's arenas to their high-water mark.
	for _, rd := range warmup(g.reads) {
		if _, err := m.mapRead(rd); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := g.reads[i%len(g.reads)]
		locs, err := m.mapRead(rd)
		if err != nil {
			b.Fatal(err)
		}
		m.wbuf = eng.weights(locs, m.wbuf)
	}
}

// BenchmarkMapReadFullKernel is the same hot path with banding disabled
// (Band: -1) — the ns/op ratio against BenchmarkMapReadSteadyState is
// the end-to-end win from the banded kernel.
func BenchmarkMapReadFullKernel(b *testing.B) {
	g := makePipelineB(b, 30000, 4, 4, 91)
	eng, err := NewEngine(g.ref, Config{Band: -1})
	if err != nil {
		b.Fatal(err)
	}
	m, err := eng.newMapper()
	if err != nil {
		b.Fatal(err)
	}
	for _, rd := range g.reads {
		if _, err := m.mapRead(rd); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := g.reads[i%len(g.reads)]
		locs, err := m.mapRead(rd)
		if err != nil {
			b.Fatal(err)
		}
		m.wbuf = eng.weights(locs, m.wbuf)
	}
}

// warmup returns a read subset large enough to reach every scratch
// buffer's high-water mark without dominating benchmark setup time.
func warmup(reads []*fastq.Read) []*fastq.Read {
	if len(reads) > 400 {
		return reads[:400]
	}
	return reads
}
