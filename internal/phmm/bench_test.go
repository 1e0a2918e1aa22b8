package phmm

import (
	"fmt"
	"math/rand"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/fastq"
	"gnumap/internal/pwm"
)

// benchInputs builds a paper-sized alignment problem: a 62-bp read
// against a padded 78-bp window.
func benchInputs(b *testing.B) (*Matrix62, dna.Seq) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	window := make(dna.Seq, 78)
	for i := range window {
		window[i] = dna.Code(rng.Intn(4))
	}
	read := window[8:70].Clone()
	read[30] = dna.Code((int(read[30]) + 1) % 4)
	p, err := pwm.FromSeqUniformError(read, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	return &Matrix62{p}, window
}

// Matrix62 wraps the PWM to keep the helper signature readable.
type Matrix62 struct{ *pwm.Matrix }

func BenchmarkAlignSemiGlobal62(b *testing.B) {
	p, window := benchInputs(b)
	a, err := NewAligner(DefaultParams(), SemiGlobal)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Align(p.Matrix, window); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlignGlobal62(b *testing.B) {
	p, window := benchInputs(b)
	a, err := NewAligner(DefaultParams(), Global)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Align(p.Matrix, window); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViterbi62(b *testing.B) {
	p, window := benchInputs(b)
	a, err := NewAligner(DefaultParams(), SemiGlobal)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Viterbi(p.Matrix, window); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContributions62(b *testing.B) {
	p, window := benchInputs(b)
	a, err := NewAligner(DefaultParams(), SemiGlobal)
	if err != nil {
		b.Fatal(err)
	}
	res, err := a.Align(p.Matrix, window)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 1; j <= res.M; j++ {
			res.Contribution(j, ByCall)
		}
	}
}

// benchBand is the engine's auto band at the default Pad=8.
const benchBand = 18

func BenchmarkAlignBandedSemiGlobal62(b *testing.B) {
	p, window := benchInputs(b)
	a, err := NewAligner(DefaultParams(), SemiGlobal)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AlignBanded(p.Matrix, window, 8, benchBand); err != nil {
			b.Fatal(err)
		}
	}
	reportPerCell(b, 62, len(window), 8, benchBand)
}

// BenchmarkAlignBandedFullWidth62 runs the banded code path with a band
// covering the whole window — the overhead of band bookkeeping relative
// to BenchmarkAlignSemiGlobal62 is the price of the unified kernel.
func BenchmarkAlignBandedFullWidth62(b *testing.B) {
	p, window := benchInputs(b)
	a, err := NewAligner(DefaultParams(), SemiGlobal)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AlignBanded(p.Matrix, window, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	reportPerCell(b, 62, len(window), 0, 0)
}

func BenchmarkViterbiBanded62(b *testing.B) {
	p, window := benchInputs(b)
	a, err := NewAligner(DefaultParams(), SemiGlobal)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.ViterbiBanded(p.Matrix, window, 8, benchBand); err != nil {
			b.Fatal(err)
		}
	}
	reportPerCell(b, 62, len(window), 8, benchBand)
}

// reportPerCell adds a ns/cell metric so banded and full runs are
// comparable per unit of DP work.
func reportPerCell(b *testing.B, n, m, diag, band int) {
	cells := BandCells(n, m, diag, band)
	if cells == 0 {
		return
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
}

// batchBenchInputs replicates benchInputs across L lanes with
// independent reads (same shape, different content, as binning
// produces in the engine).
func batchBenchInputs(b *testing.B, L int) ([]*pwm.Matrix, []dna.Seq) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	xs := make([]*pwm.Matrix, L)
	ys := make([]dna.Seq, L)
	for l := 0; l < L; l++ {
		window := make(dna.Seq, 78)
		for i := range window {
			window[i] = dna.Code(rng.Intn(4))
		}
		read := window[8:70].Clone()
		read[30] = dna.Code((int(read[30]) + 1) % 4)
		p, err := pwm.FromSeqUniformError(read, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		xs[l] = p
		ys[l] = window
	}
	return xs, ys
}

func benchmarkAlignBatch(b *testing.B, xs []*pwm.Matrix, ys []dna.Seq, band int) {
	ba, err := NewBatchAligner(DefaultParams(), SemiGlobal)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ba.AlignBatch(xs, ys, 8, band); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ba.AlignBatch(xs, ys, 8, band); err != nil {
			b.Fatal(err)
		}
	}
	cells := BandCells(62, 78, 8, band) * len(xs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(xs)), "ns/alignment")
}

// BenchmarkAlignBatch sweeps lane counts at the engine's default band,
// then times a full batch of distinct quality-ramp reads (the rows the
// engine's reads have) under the vector and the generic rows; the 0-alloc
// assertion for the warm path lives in TestAlignBatchAllocFree.
func BenchmarkAlignBatch(b *testing.B) {
	for _, L := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("lanes=%d/band=%d", L, benchBand), func(b *testing.B) {
			xs, ys := batchBenchInputs(b, L)
			benchmarkAlignBatch(b, xs, ys, benchBand)
		})
	}
	b.Run("lanes=8/band=full", func(b *testing.B) {
		xs, ys := batchBenchInputs(b, 8)
		benchmarkAlignBatch(b, xs, ys, 0)
	})
	for _, kernel := range []string{"avx2", "generic"} {
		b.Run(fmt.Sprintf("lanes=%d/band=%d/ramp/%s", simdLanes, benchBand, kernel), func(b *testing.B) {
			if !setAVX2(b, kernel == "avx2") {
				b.Skip("host has no AVX2")
			}
			xs, ys := rampBenchInputs(b, simdLanes)
			benchmarkAlignBatch(b, xs, ys, benchBand)
		})
	}
}

// rampBenchInputs is batchBenchInputs with each read's PWM built from
// per-base qualities on the simulator's ramp (error 0.002 at the 5' end
// rising to 0.02, Phred +-2 of jitter) instead of one flat error: the
// rows the engine's reads have.
func rampBenchInputs(b *testing.B, L int) ([]*pwm.Matrix, []dna.Seq) {
	b.Helper()
	xs, ys := batchBenchInputs(b, L)
	rng := rand.New(rand.NewSource(2))
	for l := range xs {
		rd := &fastq.Read{Seq: xs[l].Calls().Clone(), Qual: make([]uint8, xs[l].Len())}
		for i := range rd.Qual {
			e := 0.002 + (0.02-0.002)*float64(i)/float64(len(rd.Qual)-1)
			rd.Qual[i] = uint8(int(fastq.PhredFromErrorProb(e)) + rng.Intn(5) - 2)
		}
		x, err := pwm.FromRead(rd)
		if err != nil {
			b.Fatal(err)
		}
		xs[l] = x
	}
	return xs, ys
}

// BenchmarkContributionsInto measures posterior extraction per
// alignment at the engine's band: from the scalar kernel's contiguous
// planes, and from an 8-lane batch of distinct quality-ramp reads with
// every lane extracted after the invalidation a fresh AlignBatch does —
// what the mapper pays — under the vector and the generic rows.
// subnormal-cells/alignment counts the band cells whose fM*bM product
// is subnormal (each costs a microcode assist; see EXPERIMENTS.md).
func BenchmarkContributionsInto(b *testing.B) {
	p, window := benchInputs(b)
	dst := make([][dna.NumChannels]float64, len(window))
	totals := make([]float64, len(window))
	b.Run("scalar", func(b *testing.B) {
		a, err := NewAligner(DefaultParams(), SemiGlobal)
		if err != nil {
			b.Fatal(err)
		}
		res, err := a.AlignBanded(p.Matrix, window, 8, benchBand)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := res.ContributionsInto(ByCall, dst, totals); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, kernel := range []string{"avx2", "generic"} {
		b.Run("batch-of-8/"+kernel, func(b *testing.B) {
			if !setAVX2(b, kernel == "avx2") {
				b.Skip("host has no AVX2")
			}
			ba, err := NewBatchAligner(DefaultParams(), SemiGlobal)
			if err != nil {
				b.Fatal(err)
			}
			xs, ys := rampBenchInputs(b, simdLanes)
			results, err := ba.AlignBatch(xs, ys, 8, benchBand)
			if err != nil {
				b.Fatal(err)
			}
			subnormal := 0
			for l := range results {
				for i := 1; i <= results[l].N; i++ {
					lo, hi := results[l].rowBounds(i)
					for j := lo; j <= hi; j++ {
						at := results[l].idx(i, j)
						if pm := ba.fM[at] * ba.bM[at]; pm > 0 && pm < 0x1p-1022 {
							subnormal++
						}
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ba.zsValid = false
				for l := range results {
					if err := results[l].ContributionsInto(ByCall, dst, totals); err != nil {
						b.Fatal(err)
					}
				}
			}
			perAlign := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / simdLanes
			b.ReportMetric(perAlign, "ns/alignment")
			b.ReportMetric(perAlign/float64(BandCells(62, 78, 8, benchBand)), "ns/cell")
			b.ReportMetric(float64(subnormal)/simdLanes, "subnormal-cells/alignment")
		})
	}
}
