package kmer

import (
	"math/rand"
	"testing"

	"gnumap/internal/dna"
)

func benchGenome(n int) dna.Seq {
	rng := rand.New(rand.NewSource(2))
	g := make(dna.Seq, n)
	for i := range g {
		g[i] = dna.Code(rng.Intn(4))
	}
	return g
}

// benchStrands samples n 62-bp reads across g, one substitution each,
// with their reverse complements.
func benchStrands(g dna.Seq, n int, seed int64) [][2]dna.Seq {
	rng := rand.New(rand.NewSource(seed))
	strands := make([][2]dna.Seq, n)
	for i := range strands {
		at := rng.Intn(len(g) - 62)
		read := g[at : at+62].Clone()
		read[rng.Intn(62)] = dna.Code(rng.Intn(4))
		strands[i] = [2]dna.Seq{read, read.ReverseComplement()}
	}
	return strands
}

// benchIndex builds g's k-mer index as the direct table or as the hashed
// LargeIndex, the latter on one build worker so the two compare like for
// like.
func benchIndex(b *testing.B, g dna.Seq, k int, hashed bool) SeedIndex {
	b.Helper()
	var idx SeedIndex
	var err error
	if hashed {
		idx, err = NewLargeWith(g, k, LargeConfig{Workers: 1})
	} else {
		idx, err = New(g, k)
	}
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

// BenchmarkIndexBuild1M builds the k=10 index of a 1 Mbp genome both
// ways: the direct table and the hashed LargeIndex (ROADMAP item 6(a)
// asks whether the second can replace the first).
func BenchmarkIndexBuild1M(b *testing.B) {
	g := benchGenome(1_000_000)
	for _, c := range []struct {
		name   string
		hashed bool
	}{{"direct", false}, {"hash", true}} {
		b.Run(c.name, func(b *testing.B) {
			var mem int64
			for i := 0; i < b.N; i++ {
				mem = benchIndex(b, g, DefaultK, c.hashed).MemoryBytes()
			}
			b.ReportMetric(float64(len(g))*float64(b.N)/b.Elapsed().Seconds(), "bases/s")
			b.ReportMetric(float64(mem)/(1<<20), "MiB")
		})
	}
}

func BenchmarkCandidates62(b *testing.B) {
	g := benchGenome(1_000_000)
	idx, err := New(g, DefaultK)
	if err != nil {
		b.Fatal(err)
	}
	read := g[500_000:500_062].Clone()
	read[31] = dna.Code((int(read[31]) + 1) % 4)
	opts := CandidateOptions{MaxCandidates: 8, MinVotes: 2, MaxBucket: 1024, Slack: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := idx.Candidates(read, opts); len(got) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkCandidatesInto is the seed layer on its own — the number
// next to the repo benchmark's kmer.lookup_ns_per_read: both strands of
// 62-bp reads sampled across a random genome (one substitution each)
// through warm buffers, on the two index shapes the benchmark
// workloads use, plus the hashed index at the direct table's k. The
// -both rows ask for the two strands in one CandidatesBothInto call, as
// the engine does; the others make a CandidatesInto call per strand. A
// read is one iteration, so ns/read == ns/op.
func BenchmarkCandidatesInto(b *testing.B) {
	opts := CandidateOptions{MaxCandidates: 8, MinVotes: 2, MaxBucket: 1024, Slack: 2}
	for _, c := range []struct {
		name   string
		k, n   int
		hashed bool
	}{
		{"direct-k10-1.5Mbp", DefaultK, 1_500_000, false},
		{"hash-k10-1.5Mbp", DefaultK, 1_500_000, true},
		{"hash-k20-4Mbp", 20, 4_000_000, true},
	} {
		g := benchGenome(c.n)
		idx := benchIndex(b, g, c.k, c.hashed)
		strands := benchStrands(g, 4096, 3)
		for _, both := range []bool{false, true} {
			name := c.name
			if both {
				name += "-both"
			}
			b.Run(name, func(b *testing.B) {
				var buf, rev CandidateBuf
				var hits int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := &strands[i%len(strands)]
					if both {
						idx.CandidatesBothInto(s[0], opts, &buf, &rev)
						hits += buf.Stats.Hits + rev.Stats.Hits
						continue
					}
					for _, read := range s {
						idx.CandidatesInto(read, opts, &buf)
						hits += buf.Stats.Hits
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/read")
				b.ReportMetric(float64(hits)/float64(b.N), "hits/read")
			})
		}
	}
}
