package phmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/pwm"
)

// makePairs simulates training pairs: reads sampled from a random
// window with the given substitution and indel rates.
func makePairs(t *testing.T, n int, subRate, indelRate float64, seed int64) []TrainingPair {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var pairs []TrainingPair
	for i := 0; i < n; i++ {
		window := make(dna.Seq, 70)
		for k := range window {
			window[k] = dna.Code(rng.Intn(4))
		}
		// Sequence a 54-base read from window[8:62] with errors.
		var read dna.Seq
		for k := 8; k < 62 && len(read) < 54; k++ {
			if indelRate > 0 && rng.Float64() < indelRate {
				if rng.Intn(2) == 0 {
					read = append(read, dna.Code(rng.Intn(4))) // insertion
				}
				continue // deletion
			}
			b := window[k]
			if rng.Float64() < subRate {
				b = dna.Code((int(b) + 1 + rng.Intn(3)) % 4)
			}
			read = append(read, b)
		}
		if len(read) < 20 {
			continue
		}
		x, err := pwm.FromSeqUniformError(read, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, TrainingPair{X: x, Y: window})
	}
	return pairs
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, DefaultParams(), TrainOptions{}); err == nil {
		t.Error("no pairs accepted")
	}
	bad := DefaultParams()
	bad.TMM = 0.5
	pairs := makePairs(t, 2, 0.01, 0, 1)
	if _, err := Fit(pairs, bad, TrainOptions{}); err == nil {
		t.Error("invalid init accepted")
	}
}

func TestFitCleanDataSharpensParameters(t *testing.T) {
	pairs := makePairs(t, 40, 0.01, 0, 3)
	res, err := Fit(pairs, DefaultParams(), TrainOptions{MaxIter: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Params.Validate(); err != nil {
		t.Fatalf("fitted params invalid: %v", err)
	}
	// Indel-free data: gap open should shrink below the 0.025 default.
	if res.Params.TMG >= DefaultParams().TMG {
		t.Errorf("TMG = %v, want < default %v on indel-free data", res.Params.TMG, DefaultParams().TMG)
	}
	// 1% substitution: the diagonal should stay high.
	for y := 0; y < dna.NumBases; y++ {
		if res.Params.Match[y][y] < 0.9 {
			t.Errorf("Match[%d][%d] = %v after training on clean data", y, y, res.Params.Match[y][y])
		}
	}
}

func TestFitLearnsIndelRate(t *testing.T) {
	clean := makePairs(t, 40, 0.01, 0, 5)
	indel := makePairs(t, 40, 0.01, 0.03, 7)
	resClean, err := Fit(clean, DefaultParams(), TrainOptions{MaxIter: 8})
	if err != nil {
		t.Fatal(err)
	}
	resIndel, err := Fit(indel, DefaultParams(), TrainOptions{MaxIter: 8})
	if err != nil {
		t.Fatal(err)
	}
	if resIndel.Params.TMG <= resClean.Params.TMG {
		t.Errorf("indel-rich TMG %v <= clean TMG %v", resIndel.Params.TMG, resClean.Params.TMG)
	}
}

func TestFitLearnsSubstitutionRate(t *testing.T) {
	low := makePairs(t, 40, 0.005, 0, 9)
	high := makePairs(t, 40, 0.10, 0, 11)
	resLow, err := Fit(low, DefaultParams(), TrainOptions{MaxIter: 8})
	if err != nil {
		t.Fatal(err)
	}
	resHigh, err := Fit(high, DefaultParams(), TrainOptions{MaxIter: 8})
	if err != nil {
		t.Fatal(err)
	}
	diagLow, diagHigh := 0.0, 0.0
	for y := 0; y < dna.NumBases; y++ {
		diagLow += resLow.Params.Match[y][y]
		diagHigh += resHigh.Params.Match[y][y]
	}
	if diagHigh >= diagLow {
		t.Errorf("high-error diagonal %v >= low-error diagonal %v", diagHigh/4, diagLow/4)
	}
}

func TestFitImprovesLikelihood(t *testing.T) {
	pairs := makePairs(t, 30, 0.03, 0.01, 13)
	// Start from a deliberately poor parameter set.
	start := DefaultParams()
	for y := 0; y < dna.NumBases; y++ {
		for k := 0; k < dna.NumBases; k++ {
			if y == k {
				start.Match[y][k] = 0.4
			} else {
				start.Match[y][k] = 0.2
			}
		}
	}
	// Likelihood of the data under the start params.
	al, err := newRefAligner(start, SemiGlobal)
	if err != nil {
		t.Fatal(err)
	}
	ll0 := 0.0
	for _, pr := range pairs {
		r, err := al.Align(pr.X, pr.Y)
		if err != nil {
			t.Fatal(err)
		}
		ll0 += r.LogLik
	}
	res, err := Fit(pairs, start, TrainOptions{MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.LogLik <= ll0 {
		t.Errorf("EM did not improve likelihood: %v -> %v", ll0, res.LogLik)
	}
	if res.Iters < 1 || res.Iters > 10 {
		t.Errorf("Iters = %d", res.Iters)
	}
	// Fitted-parameter alignment of a fresh clean pair still behaves.
	fresh := makePairs(t, 1, 0.01, 0, 15)
	al2, err := NewAligner(res.Params, SemiGlobal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := al2.AlignBanded(fresh[0].X, fresh[0].Y, 0, 0); err != nil {
		t.Fatal(err)
	}
}

// The expected transition counts must total what the chain structure
// dictates: every alignment makes exactly n-1 read-consuming moves
// (M->M/GX entries from rows 1..n-1) plus the within-row GY moves;
// here we verify a weaker but exact invariant — counts are finite,
// non-negative, and the M-row total is below n per read.
func TestExpectedCountsSane(t *testing.T) {
	pairs := makePairs(t, 5, 0.02, 0.02, 17)
	ba, err := NewBatchAligner(DefaultParams(), SemiGlobal)
	if err != nil {
		t.Fatal(err)
	}
	var c counts
	for _, pr := range pairs {
		results, err := ba.AlignBatch([]*pwm.Matrix{pr.X}, []dna.Seq{pr.Y}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Err != nil {
			t.Fatal(results[0].Err)
		}
		accumulateExpectations(&results[0], pr, &c)
	}
	mm, mg, gm, gg, match := c.cMM, c.cMG, c.cGM, c.cGG, c.cMatch
	for _, v := range []float64{mm, mg, gm, gg} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("bad expected count: mm=%v mg=%v gm=%v gg=%v", mm, mg, gm, gg)
		}
	}
	if mm == 0 {
		t.Error("no expected M->M transitions on matching data")
	}
	// Total expected emissions equal total posterior match mass, which
	// is at most n per read (each read base matches at most once).
	emit := 0.0
	for y := range match {
		for k := range match[y] {
			emit += match[y][k]
		}
	}
	if emit <= 0 || emit > float64(len(pairs))*54 {
		t.Errorf("expected emission mass %v out of range", emit)
	}
}

// requireSameFit holds two fits to equal bits: every parameter, the
// log-likelihood and the iteration count.
func requireSameFit(t *testing.T, label string, got, want *TrainResult) {
	t.Helper()
	g, w := got.Params, want.Params
	gs := []float64{g.TMM, g.TMG, g.TGM, g.TGG, g.Q, got.LogLik}
	ws := []float64{w.TMM, w.TMG, w.TGM, w.TGG, w.Q, want.LogLik}
	for y := range g.Match {
		gs, ws = append(gs, g.Match[y][:]...), append(ws, w.Match[y][:]...)
	}
	for k := range gs {
		if math.Float64bits(gs[k]) != math.Float64bits(ws[k]) {
			t.Fatalf("%s: value %d (TMM, TMG, TGM, TGG, Q, LogLik, Match...) is %v, scalar EM %v", label, k, gs[k], ws[k])
		}
	}
	if got.Iters != want.Iters {
		t.Fatalf("%s: %d iterations, scalar EM %d", label, got.Iters, want.Iters)
	}
}

// TestFitMatchesScalarEM: Fit's batched E-step must reproduce the
// pair-at-a-time EM on the scalar reference bit for bit — parameters,
// LogLik and Iters — in both modes. The pair sets have indels, so read
// lengths vary and the same-shape runs AlignBatch takes are ragged; they
// hold 1, 7, 8, 9 and 17 pairs (a run of one, a partial sweep, one full
// sweep, a full sweep plus one); some windows and reads carry N; and a
// Global-mode pair that admits no alignment under the zero-tolerance
// start sits among live lanes of its shape. Under the AVX2 rows and the
// Go rows.
func TestFitMatchesScalarEM(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		strict := DefaultParams()
		for y := range strict.Match {
			for k := range strict.Match[y] {
				strict.Match[y][k] = 0
			}
			strict.Match[y][y] = 1
		}
		rng := rand.New(rand.NewSource(36))
		for _, mode := range []Mode{Global, SemiGlobal} {
			for _, count := range []int{1, 7, 8, 9, 17} {
				pairs := makePairs(t, count, 0.02, 0.03, int64(100*int(mode)+count))
				for len(pairs) < count {
					pairs = append(pairs, pairs[len(pairs)-1])
				}
				for k := range pairs {
					if k%3 != 1 {
						continue
					}
					// A window and a read with N.
					y := pairs[k].Y.Clone()
					y[rng.Intn(len(y))] = dna.N
					read := pairs[k].X.Calls().Clone()
					read[rng.Intn(len(read))] = dna.N
					x, err := pwm.FromSeqUniformError(read, 0.01)
					if err != nil {
						t.Fatal(err)
					}
					pairs[k] = TrainingPair{X: x, Y: y}
				}
				label := fmt.Sprintf("mode %v, %d pairs", mode, count)
				want, err := refFit(pairs, DefaultParams(), TrainOptions{Mode: mode})
				if err != nil {
					t.Fatalf("%s: scalar EM: %v", label, err)
				}
				got, err := Fit(pairs, DefaultParams(), TrainOptions{Mode: mode})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSameFit(t, label, got, want)
			}
		}

		// Global mode from the zero-tolerance start: a one-hot read whose
		// first base mismatches its window has no alignment in the first
		// E-step (every Global path opens with a match at (1,1)), so both
		// EMs skip it there and use it afterwards.
		pairs := makePairs(t, 12, 0.02, 0.03, 37)
		window := pairs[0].Y
		read := window[:54].Clone()
		read[0] = dna.Code((int(read[0]) + 1) % 4)
		dead, err := pwm.FromSeqUniformError(read, 0)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs[:5:5], append([]TrainingPair{{X: dead, Y: window}}, pairs[5:]...)...)
		shared := 0
		for _, pr := range pairs {
			if pr.X.Len() == 54 && len(pr.Y) == len(window) {
				shared++
			}
		}
		if shared < 2 {
			t.Fatalf("setup: the dead pair shares its shape with %d pairs", shared-1)
		}
		ref, err := newRefAligner(strict, Global)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Align(dead, window); err != ErrNoAlignment {
			t.Fatalf("setup: dead pair aligns under the strict start (err %v)", err)
		}
		want, err := refFit(pairs, strict, TrainOptions{Mode: Global})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Fit(pairs, strict, TrainOptions{Mode: Global})
		if err != nil {
			t.Fatal(err)
		}
		requireSameFit(t, "global with a dead pair", got, want)

		// Errors stay errors: no live pair at all, and an empty window.
		if _, err := Fit(pairs[5:6], strict, TrainOptions{Mode: Global}); err == nil {
			t.Error("Fit on one dead pair succeeded")
		}
		empty := append(pairs[:3:3], TrainingPair{X: pairs[3].X, Y: dna.Seq{}})
		if _, err := Fit(empty, DefaultParams(), TrainOptions{}); err == nil {
			t.Error("Fit with an empty window succeeded")
		}
	})
}
