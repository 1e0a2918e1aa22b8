package core

import (
	"fmt"
	"math"
	"testing"

	"gnumap/internal/genome"
	"gnumap/internal/lrt"
	"gnumap/internal/phmm"
	"gnumap/internal/snp"
)

func TestEffectiveBand(t *testing.T) {
	cases := []struct {
		cfg  Config
		want int
	}{
		{Config{}, 18},                                 // auto: 2*Pad(8)+2
		{Config{Pad: 12}, 26},                          // auto tracks Pad
		{Config{Band: 30}, 30},                         // explicit
		{Config{Band: -1}, 0},                          // forced full kernel
		{Config{AlignMode: phmm.Global}, 0},            // auto Global: full
		{Config{AlignMode: phmm.Global, Band: 10}, 10}, // explicit Global
	}
	for _, c := range cases {
		if got := c.cfg.withDefaults().effectiveBand(); got != c.want {
			t.Errorf("effectiveBand(%+v) = %d, want %d", c.cfg, got, c.want)
		}
	}
}

// TestBandedEngineSameSNPCalls is the acceptance gate: on the simulated
// dataset, the default band must call exactly the same SNPs as the full
// kernel (Band: -1).
func TestBandedEngineSameSNPCalls(t *testing.T) {
	p := makePipeline(t, 60000, 8, 12, 77)
	callsOf := func(band int) []snp.Call {
		t.Helper()
		eng, err := NewEngine(p.ref, Config{Band: band})
		if err != nil {
			t.Fatal(err)
		}
		acc, err := genome.New(genome.Norm, p.ref.Len())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.MapReads(p.reads, acc); err != nil {
			t.Fatal(err)
		}
		calls, _, err := snp.CallAll(p.ref, acc, snp.Config{Ploidy: lrt.Monoploid})
		if err != nil {
			t.Fatal(err)
		}
		return calls
	}
	full := callsOf(-1)
	banded := callsOf(0)
	key := func(c snp.Call) string {
		return fmt.Sprintf("%d:%v>%v/%v", c.GlobalPos, c.Ref, c.Allele, c.Allele2)
	}
	if len(full) != len(banded) {
		t.Fatalf("full kernel called %d SNPs, banded %d", len(full), len(banded))
	}
	for i := range full {
		if key(full[i]) != key(banded[i]) {
			t.Errorf("call %d differs: full %s vs banded %s", i, key(full[i]), key(banded[i]))
		}
	}
}

// TestWeightsRenormalized: after MinPosterior thresholding, the
// surviving weights must sum to 1 so a mapped read deposits exactly one
// unit of posterior mass.
func TestWeightsRenormalized(t *testing.T) {
	eng := &Engine{cfg: Config{MinPosterior: 0.05}.withDefaults()}
	// Likelihood spread chosen so the softmax gives two survivors and
	// two sub-threshold locations holding ~7% of the mass.
	locs := []location{
		{logLik: 0},
		{logLik: -0.5},
		{logLik: -3.5},
		{logLik: -3.6},
	}
	w := eng.weights(logLiks(locs, nil))
	sum := 0.0
	nonzero := 0
	for _, wi := range w {
		sum += wi
		if wi > 0 {
			nonzero++
		}
	}
	if nonzero != 2 {
		t.Fatalf("weights %v: %d survivors, want 2", w, nonzero)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("surviving weights sum to %v, want 1", sum)
	}
	if w[0] <= w[1] || w[2] != 0 || w[3] != 0 {
		t.Errorf("weights %v: wrong ordering/thresholding", w)
	}

	// Buffer reuse: a second call into the same buffer must not read
	// stale state (BestHitOnly path zeroes explicitly).
	engBest := &Engine{cfg: Config{BestHitOnly: true}.withDefaults()}
	w2 := engBest.weights(logLiks(locs, w[:0]))
	for i, wi := range w2 {
		want := 0.0
		if i == 0 {
			want = 1
		}
		if wi != want {
			t.Errorf("BestHitOnly reused-buffer weights[%d] = %v, want %v", i, wi, want)
		}
	}
}

// TestMapBatchSteadyStateZeroAllocs verifies the zero-allocation hot
// path: after warmup, mapping and accumulating whole batches — full
// chunks and a ragged last one — must not allocate.
func TestMapBatchSteadyStateZeroAllocs(t *testing.T) {
	p := makePipeline(t, 30000, 4, 4, 55)
	eng, err := NewEngine(p.ref, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := eng.getMapper()
	if err != nil {
		t.Fatal(err)
	}
	acc, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	reads := p.reads
	if len(reads) > 200 {
		reads = reads[:200]
	}
	var st Stats
	sink := m.accumulate(acc, &st)
	round := func() {
		if err := m.mapBatch(reads, false, sink); err != nil {
			t.Fatal(err)
		}
	}
	round() // warmup: grows arenas and scratch to the high-water mark
	avg := testing.AllocsPerRun(5, round)
	if avg > 0 {
		t.Errorf("steady-state mapBatch allocates %.1f times per %d reads, want 0", avg, len(reads))
	}
}
