package genome

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"gnumap/internal/dna"
)

// Property: for every accumulator mode, partitioning a random
// contribution stream across K shard accumulators and merging them
// yields the same state as one accumulator fed the whole stream —
// within the mode's representation tolerance. This is exactly the
// invariant the read-split cluster reduction (and the streaming
// dealer) relies on: shard assignment must not change the result.

// mergeEvent is one AddRange call of the random stream.
type mergeEvent struct {
	start  int
	zs     []Vec
	weight float64
}

// randomStream builds a reproducible stream mixing dense random
// contributions with a pure-channel zone (positions pureLo..L) whose
// events only ever touch one channel, so lossy modes can be checked
// for argmax preservation there.
func randomStream(rng *rand.Rand, n, L, pureLo int) []mergeEvent {
	events := make([]mergeEvent, n)
	for i := range events {
		var ev mergeEvent
		if i%4 == 3 {
			// Pure-channel zone: single-position events, channel fixed
			// by position so every shard agrees on it.
			pos := pureLo + rng.Intn(L-pureLo)
			var z Vec
			z[pos%dna.NumChannels] = 0.2 + rng.Float64()
			ev = mergeEvent{start: pos, zs: []Vec{z}, weight: 0.5 + rng.Float64()}
		} else {
			span := 1 + rng.Intn(3)
			zs := make([]Vec, span)
			for j := range zs {
				for k := 0; k < dna.NumChannels; k++ {
					zs[j][k] = rng.Float64()
				}
			}
			ev = mergeEvent{start: rng.Intn(pureLo - span), zs: zs, weight: 0.1 + 1.5*rng.Float64()}
		}
		events[i] = ev
	}
	return events
}

func feed(t *testing.T, mode Mode, L int, events []mergeEvent) Accumulator {
	t.Helper()
	acc, err := New(mode, L)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		acc.AddRange(ev.start, ev.zs, ev.weight)
	}
	return acc
}

func TestMergePropertyShardsEqualSingle(t *testing.T) {
	const (
		L      = 160
		pureLo = 120
		K      = 4
		events = 2000
	)
	for _, mode := range []Mode{Norm, CharDisc, CentDisc} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed * 7919))
			stream := randomStream(rng, events, L, pureLo)

			single := feed(t, mode, L, stream)

			// Partition round-robin, preserving each shard's stream order.
			parts := make([][]mergeEvent, K)
			for i, ev := range stream {
				parts[i%K] = append(parts[i%K], ev)
			}
			merged := feed(t, mode, L, parts[0])
			for s := 1; s < K; s++ {
				shard := feed(t, mode, L, parts[s])
				if err := merged.Merge(shard); err != nil {
					t.Fatalf("%v seed %d: merge shard %d: %v", mode, seed, s, err)
				}
			}

			fs, fm := view(t, single), view(t, merged)
			for pos := 0; pos < L; pos++ {
				wantT, gotT := fs.Total(pos), fm.Total(pos)
				if math.Abs(wantT-gotT) > 1e-3*(1+wantT) {
					t.Fatalf("%v seed %d pos %d: total %v (merged) vs %v (single)", mode, seed, pos, gotT, wantT)
				}
				want, got := fs.Vector(pos), fm.Vector(pos)
				switch mode {
				case Norm:
					// Exact up to float32 accumulation order.
					for k := 0; k < dna.NumChannels; k++ {
						if math.Abs(want[k]-got[k]) > 1e-3*(1+want[k]) {
							t.Fatalf("Norm seed %d pos %d ch %d: %v vs %v", seed, pos, k, got[k], want[k])
						}
					}
				case CharDisc:
					// Channel mass is re-quantized to 255ths of the total on
					// every touch; both sides drift, so allow a few percent
					// of the position's mass per channel.
					tol := 0.1*wantT + 0.5
					for k := 0; k < dna.NumChannels; k++ {
						if math.Abs(want[k]-got[k]) > tol {
							t.Fatalf("CharDisc seed %d pos %d ch %d: %v vs %v (total %v)", seed, pos, k, got[k], want[k], wantT)
						}
					}
				case CentDisc:
					// Codebook merges are lossy: check the invariants that
					// must survive — the vector still sums to the total, and
					// pure-channel positions keep their argmax.
					sum := 0.0
					for k := 0; k < dna.NumChannels; k++ {
						sum += got[k]
					}
					if math.Abs(sum-gotT) > 1e-3*(1+gotT) {
						t.Fatalf("CentDisc seed %d pos %d: vector sums to %v, total %v", seed, pos, sum, gotT)
					}
					if pos >= pureLo && wantT > 0 {
						wantCh := pos % dna.NumChannels
						bestK, bestV := -1, -1.0
						for k := 0; k < dna.NumChannels; k++ {
							if got[k] > bestV {
								bestK, bestV = k, got[k]
							}
						}
						if bestK != wantCh {
							t.Fatalf("CentDisc seed %d pure pos %d: argmax channel %d, want %d (vec %v)", seed, pos, bestK, wantCh, got)
						}
					}
				}
			}
		}
	}
}

// TestMergeEmptyShardIsIdentity: merging a never-touched shard must not
// change any mode's state.
func TestMergeEmptyShardIsIdentity(t *testing.T) {
	const L = 64
	rng := rand.New(rand.NewSource(99))
	stream := randomStream(rng, 300, L, 48)
	for _, mode := range []Mode{Norm, CharDisc, CentDisc} {
		acc := feed(t, mode, L, stream)
		before := make([]Vec, L)
		totals := make([]float64, L)
		fz := view(t, acc)
		for pos := 0; pos < L; pos++ {
			before[pos] = fz.Vector(pos)
			totals[pos] = fz.Total(pos)
		}
		empty, err := New(mode, L)
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Merge(empty); err != nil {
			t.Fatalf("%v: merge empty: %v", mode, err)
		}
		for pos := 0; pos < L; pos++ {
			if got := fz.Total(pos); got != totals[pos] {
				t.Fatalf("%v pos %d: total changed %v -> %v", mode, pos, totals[pos], got)
			}
			got := fz.Vector(pos)
			for k := 0; k < dna.NumChannels; k++ {
				if math.Abs(got[k]-before[pos][k]) > 1e-9 {
					t.Fatalf("%v pos %d ch %d: vector changed %v -> %v", mode, pos, k, before[pos][k], got[k])
				}
			}
		}
	}
}

// TestMergeTreeMatchesSerial: the fold order of a reduction must not
// matter beyond float32 rounding — rank 0 merges round payloads in
// arrival order, so any bracketing of the same K states has to agree
// with the serial left fold. Pairwise (stride-doubling) bracketing is
// the one furthest from a left fold; odd K exercises its leftover leg.
func TestMergeTreeMatchesSerial(t *testing.T) {
	const L, K = 96, 5
	rng := rand.New(rand.NewSource(11))
	tree := make([]Accumulator, K)
	serial, err := New(Norm, L)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tree {
		stream := randomStream(rng, 200, L, 64)
		tree[i] = feed(t, Norm, L, stream)
		if err := serial.Merge(feed(t, Norm, L, stream)); err != nil {
			t.Fatal(err)
		}
	}
	for stride := 1; stride < K; stride *= 2 {
		for i := 0; i+stride < K; i += 2 * stride {
			if err := tree[i].Merge(tree[i+stride]); err != nil {
				t.Fatal(err)
			}
		}
	}
	fs, ft := view(t, serial), view(t, tree[0])
	for pos := 0; pos < L; pos++ {
		a, b := fs.Total(pos), ft.Total(pos)
		if math.Abs(a-b) > 1e-3*(1+a) {
			t.Fatalf("pos %d: pairwise fold %v vs serial fold %v", pos, b, a)
		}
	}
}

// TestMergeTreeError: a mismatched state arriving mid-fold surfaces as
// an error instead of corrupting — the destination keeps, byte for
// byte, what the folds before it left there.
func TestMergeTreeError(t *testing.T) {
	const L = 64
	for _, mode := range allModes() {
		rng := rand.New(rand.NewSource(23))
		dst := feed(t, mode, L, randomStream(rng, 100, L, 48))
		if err := dst.Merge(feed(t, mode, L, randomStream(rng, 100, L, 48))); err != nil {
			t.Fatal(err)
		}
		before := stateOf(t, dst)
		if err := dst.Merge(feed(t, mode, L+1, randomStream(rng, 100, L, 48))); err == nil {
			t.Fatalf("%v: length mismatch accepted", mode)
		}
		if !bytes.Equal(stateOf(t, dst), before) {
			t.Fatalf("%v: a refused Merge changed the destination", mode)
		}
	}
}

// TestCharDiscMergeSaturation pins the 255-denominator quantization
// edge on the MERGE path (the add path is covered by
// TestCharDiscSaturation): merging a shard holding a huge pure-channel
// mass with a shard holding a tiny different-channel mass re-quantizes
// against the combined total, so the minor channel's share falls below
// half a quantum and vanishes — the dominant channel saturates the
// denominator — while the scalar total still tracks the true mass.
// This is how a rare allele seen by only one cluster shard can be
// erased at reduction time under CHARDISC.
func TestCharDiscMergeSaturation(t *testing.T) {
	acc, err := New(CharDisc, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc.AddRange(0, []Vec{{1000}}, 1) // 1000 units, all channel 0
	minor, err := New(CharDisc, 1)
	if err != nil {
		t.Fatal(err)
	}
	minor.AddRange(0, []Vec{{0, 1}}, 1) // one unit of channel 1
	// Pre-merge, the minor shard's own quantization keeps its mass.
	if v := view(t, minor).Vector(0); v[1] != 1 {
		t.Fatalf("minor shard lost its own mass: %v", v)
	}
	if err := acc.Merge(minor); err != nil {
		t.Fatal(err)
	}

	fz := view(t, acc)
	if got, want := fz.Total(0), 1001.0; math.Abs(got-want) > 1e-6*want {
		t.Fatalf("total = %v, want %v", got, want)
	}
	v := fz.Vector(0)
	// Channel 1's exact fraction is 1/1001 of 255 ≈ 0.25 quanta: below
	// half a quantum, largest-remainder rounding hands its unit to the
	// dominant channel, so the reconstructed minor mass is exactly zero.
	if v[1] != 0 {
		t.Errorf("minor channel survived quantization: %v", v[1])
	}
	if math.Abs(v[0]-1001) > 1e-6*1001 {
		t.Errorf("dominant channel = %v, want 1001 (saturated fraction)", v[0])
	}
	// The quantized fractions must still sum to the full denominator —
	// no mass leaks even at saturation.
	sum := 0.0
	for k := 0; k < dna.NumChannels; k++ {
		sum += v[k]
	}
	if math.Abs(sum-1001) > 1e-6*1001 {
		t.Errorf("vector sums to %v, want 1001", sum)
	}
}
