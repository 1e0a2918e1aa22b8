package qc

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
)

func TestSummarizeReads(t *testing.T) {
	reads := []*fastq.Read{
		{Name: "a", Seq: dna.MustParseSeq("ACGT"), Qual: []uint8{10, 20, 30, 40}},
		{Name: "b", Seq: dna.MustParseSeq("GGCCNN"), Qual: []uint8{20, 20, 20, 20, 2, 2}},
		{Name: "invalid", Seq: dna.MustParseSeq("AC"), Qual: []uint8{1}}, // skipped
		nil, // skipped
	}
	st := SummarizeReads(reads)
	if st.Count != 2 || st.Bases != 10 {
		t.Fatalf("count/bases = %d/%d", st.Count, st.Bases)
	}
	if st.MinLen != 4 || st.MaxLen != 6 || st.MeanLen != 5 {
		t.Errorf("lengths: %d/%d/%v", st.MinLen, st.MaxLen, st.MeanLen)
	}
	// GC: bases ACGT GGCC (N excluded): G=3, C=3 of 8 concrete -> 0.75.
	if math.Abs(st.GC-0.75) > 1e-12 {
		t.Errorf("GC = %v", st.GC)
	}
	if st.BaseCount[dna.N] != 2 {
		t.Errorf("N count = %d", st.BaseCount[dna.N])
	}
	wantMeanQ := float64(10+20+30+40+20+20+20+20+2+2) / 10
	if math.Abs(st.MeanQuality-wantMeanQ) > 1e-9 {
		t.Errorf("mean quality = %v, want %v", st.MeanQuality, wantMeanQ)
	}
	if st.QualityHist[20] != 5 {
		t.Errorf("hist[20] = %d", st.QualityHist[20])
	}
	var buf bytes.Buffer
	if err := st.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "reads:        2") {
		t.Errorf("report wrong:\n%s", buf.String())
	}
}

func TestSummarizeReadsEmpty(t *testing.T) {
	st := SummarizeReads(nil)
	if st.Count != 0 || st.MinLen != 0 || st.MeanQuality != 0 {
		t.Errorf("empty stats: %+v", st)
	}
}

func TestSummarizeCoverage(t *testing.T) {
	acc, err := genome.New(genome.Norm, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Positions 0..4 get depth 5, positions 5..6 get depth 1.
	for i := 0; i < 5; i++ {
		acc.AddRange(0, []genome.Vec{{1, 0, 0, 0, 0}, {1, 0, 0, 0, 0}, {1, 0, 0, 0, 0}, {1, 0, 0, 0, 0}, {1, 0, 0, 0, 0}}, 1)
	}
	acc.AddRange(5, []genome.Vec{{0, 1, 0, 0, 0}, {0, 1, 0, 0, 0}}, 1)
	st := SummarizeCoverage(acc, 8)
	if st.Positions != 10 {
		t.Fatalf("positions = %d", st.Positions)
	}
	if math.Abs(st.MeanDepth-2.7) > 1e-9 {
		t.Errorf("mean depth = %v, want 2.7", st.MeanDepth)
	}
	if st.MaxDepth != 5 {
		t.Errorf("max depth = %v", st.MaxDepth)
	}
	if math.Abs(st.Breadth1-0.7) > 1e-9 || math.Abs(st.Breadth4-0.5) > 1e-9 || st.Breadth10 != 0 {
		t.Errorf("breadth = %v/%v/%v", st.Breadth1, st.Breadth4, st.Breadth10)
	}
	if st.Hist[0] != 3 || st.Hist[1] != 2 || st.Hist[5] != 5 {
		t.Errorf("hist = %v", st.Hist)
	}
	var buf bytes.Buffer
	if err := st.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean depth:  2.70x") {
		t.Errorf("report wrong:\n%s", buf.String())
	}
}

// TestSummarizeCoverageFractionalDepth pins the nearest-integer
// histogram convention: posterior depth is fractional, and the old
// int(d) truncation filed depth 0.9 under "0x" (while Breadth1 only
// counts d >= 1), overstating uncovered genome.
func TestSummarizeCoverageFractionalDepth(t *testing.T) {
	acc, err := genome.New(genome.Norm, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Depths: 0.9 (rounds to 1), 0.4 (rounds to 0), 1.5 (rounds to 2),
	// and 0 (untouched).
	acc.AddRange(0, []genome.Vec{{0.9, 0, 0, 0, 0}}, 1)
	acc.AddRange(1, []genome.Vec{{0.4, 0, 0, 0, 0}}, 1)
	acc.AddRange(2, []genome.Vec{{1.5, 0, 0, 0, 0}}, 1)
	st := SummarizeCoverage(acc, 8)
	if st.Hist[0] != 2 || st.Hist[1] != 1 || st.Hist[2] != 1 {
		t.Errorf("hist = %v, want [2 1 1 0 ...]", st.Hist)
	}
	// Breadth thresholds stay exact >=, unaffected by bucket rounding.
	if math.Abs(st.Breadth1-0.25) > 1e-6 {
		t.Errorf("breadth1 = %v, want 0.25", st.Breadth1)
	}
}

func TestSummarizeCoverageOverflowBucket(t *testing.T) {
	acc, _ := genome.New(genome.Norm, 2)
	for i := 0; i < 100; i++ {
		acc.AddRange(0, []genome.Vec{{1, 0, 0, 0, 0}}, 1)
	}
	st := SummarizeCoverage(acc, 8)
	if st.Hist[8] != 1 {
		t.Errorf("overflow bucket = %d", st.Hist[8])
	}
	if SummarizeCoverage(nil, 0).Positions != 0 {
		t.Error("nil accumulator not empty")
	}
}

// totalWalk is the coverage summary computed one Frozen.Total at a time,
// in position order.
func totalWalk(t *testing.T, acc genome.Accumulator, maxBucket int) CoverageStats {
	t.Helper()
	fz, err := genome.Freeze(acc)
	if err != nil {
		t.Fatal(err)
	}
	st := CoverageStats{Positions: fz.Len(), Hist: make([]int64, maxBucket+1)}
	var sum float64
	var b1, b4, b10 int
	for pos := 0; pos < fz.Len(); pos++ {
		d := fz.Total(pos)
		sum += d
		st.MaxDepth = max(st.MaxDepth, d)
		if d >= 1 {
			b1++
		}
		if d >= 4 {
			b4++
		}
		if d >= 10 {
			b10++
		}
		st.Hist[min(int(math.Round(d)), maxBucket)]++
	}
	n := float64(st.Positions)
	st.MeanDepth, st.Breadth1, st.Breadth4, st.Breadth10 = sum/n, float64(b1)/n, float64(b4)/n, float64(b10)/n
	return st
}

// TestSummarizeCoverageWalksAgree: the NORM plane walk and the frozen
// Total walk of the discretized layouts each equal a per-position
// Frozen.Total walk, every field == (depth sums included).
func TestSummarizeCoverageWalksAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, mode := range []genome.Mode{genome.Norm, genome.CharDisc, genome.CentDisc} {
		acc, err := genome.New(mode, 3000)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4000; i++ {
			var v genome.Vec
			for k := range v {
				v[k] = rng.Float64() * rng.Float64()
			}
			acc.AddRange(rng.Intn(2500), []genome.Vec{v, v}, rng.Float64())
		}
		got, want := SummarizeCoverage(acc, 16), totalWalk(t, acc, 16)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: summary %+v != per-position Total walk %+v", mode, got, want)
		}
		if got.MaxDepth == 0 {
			t.Errorf("%v: nothing accumulated", mode)
		}
	}
}
