package phmm

import (
	"fmt"
	"math/rand"
	"testing"

	"gnumap/internal/dna"
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

func benchmarkAlignBatch(b *testing.B, L, band int) {
	xs, ys := batchBenchInputs(b, L)
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
	cells := BandCells(62, 78, 8, band) * L
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

// BenchmarkAlignBatch sweeps lane counts at the engine's default band;
// the 0-alloc assertion for the warm path lives in
// TestAlignBatchAllocFree.
func BenchmarkAlignBatch(b *testing.B) {
	for _, L := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("lanes=%d/band=%d", L, benchBand), func(b *testing.B) {
			benchmarkAlignBatch(b, L, benchBand)
		})
	}
	b.Run("lanes=8/band=full", func(b *testing.B) {
		benchmarkAlignBatch(b, 8, 0)
	})
}

// BenchmarkContributionsInto compares posterior extraction per
// alignment from the scalar kernel's contiguous planes and from one lane
// of an 8-lane batch's striped planes, at the engine's band.
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
	b.Run("lane-of-8", func(b *testing.B) {
		ba, err := NewBatchAligner(DefaultParams(), SemiGlobal)
		if err != nil {
			b.Fatal(err)
		}
		xs, ys := make([]*pwm.Matrix, 8), make([]dna.Seq, 8)
		for l := range xs {
			xs[l], ys[l] = p.Matrix, window
		}
		results, err := ba.AlignBatch(xs, ys, 8, benchBand)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := results[i%8].ContributionsInto(ByCall, dst, totals); err != nil {
				b.Fatal(err)
			}
		}
	})
}
