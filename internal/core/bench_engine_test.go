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

// benchMapBatch times the mapping hot path on one warm mapper, a
// Config.Batch-sized batch per mapBatch call; ns/op and allocs/op are
// per read — the allocs/op column is the zero-allocation acceptance gate.
func benchMapBatch(b *testing.B, cfg Config) {
	g := makePipelineB(b, 30000, 4, 4, 91)
	eng, err := NewEngine(g.ref, cfg)
	if err != nil {
		b.Fatal(err)
	}
	m, err := eng.getMapper()
	if err != nil {
		b.Fatal(err)
	}
	acc, err := genome.New(genome.Norm, g.ref.Len())
	if err != nil {
		b.Fatal(err)
	}
	var st Stats
	sink := m.accumulate(acc, 0, &st)
	// Warmup grows the mapper's arenas to their high-water mark.
	if err := m.mapBatch(warmup(g.reads), false, sink); err != nil {
		b.Fatal(err)
	}
	batch := eng.cfg.Batch
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		off := done % (len(g.reads) - batch)
		n := min(batch, b.N-done)
		if err := m.mapBatch(g.reads[off:off+n], false, sink); err != nil {
			b.Fatal(err)
		}
		done += n
	}
}

// BenchmarkMapReadSteadyState is the default engine: lanes packed
// across the reads of a batch.
func BenchmarkMapReadSteadyState(b *testing.B) { benchMapBatch(b, Config{}) }

// BenchmarkMapReadScalar is the same with the batched kernel off — the
// ns/op ratio is what cross-read lane packing buys per read.
func BenchmarkMapReadScalar(b *testing.B) { benchMapBatch(b, Config{PhmmBatch: -1}) }

// BenchmarkMapReadFullKernel is the same hot path with banding disabled
// (Band: -1) — the ns/op ratio against BenchmarkMapReadSteadyState is
// the end-to-end win from the banded kernel.
func BenchmarkMapReadFullKernel(b *testing.B) { benchMapBatch(b, Config{Band: -1}) }

// warmup returns a read subset large enough to reach every scratch
// buffer's high-water mark without dominating benchmark setup time.
func warmup(reads []*fastq.Read) []*fastq.Read {
	if len(reads) > 400 {
		return reads[:400]
	}
	return reads
}
