package genome

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gnumap/internal/dna"
)

// checkEquivalent asserts got matches want position-by-position within
// the mode's representation tolerance — the same bounds the merge
// property tests pin for the cluster reduction (sharded accumulation is
// the same algebra applied across worker shards instead of ranks).
func checkEquivalent(t *testing.T, mode Mode, want, got Accumulator, pureLo int) {
	t.Helper()
	L := want.Len()
	for pos := 0; pos < L; pos++ {
		wantT, gotT := want.Total(pos), got.Total(pos)
		if math.Abs(wantT-gotT) > 1e-3*(1+wantT) {
			t.Fatalf("%v pos %d: total %v (sharded) vs %v (striped)", mode, pos, gotT, wantT)
		}
		wantV, gotV := want.Vector(pos), got.Vector(pos)
		switch mode {
		case Norm:
			for k := 0; k < dna.NumChannels; k++ {
				if math.Abs(wantV[k]-gotV[k]) > 1e-3*(1+wantV[k]) {
					t.Fatalf("Norm pos %d ch %d: %v vs %v", pos, k, gotV[k], wantV[k])
				}
			}
		case CharDisc:
			tol := 0.1*wantT + 0.5
			for k := 0; k < dna.NumChannels; k++ {
				if math.Abs(wantV[k]-gotV[k]) > tol {
					t.Fatalf("CharDisc pos %d ch %d: %v vs %v (total %v)", pos, k, gotV[k], wantV[k], wantT)
				}
			}
		case CentDisc:
			sum := 0.0
			for k := 0; k < dna.NumChannels; k++ {
				sum += gotV[k]
			}
			if math.Abs(sum-gotT) > 1e-3*(1+gotT) {
				t.Fatalf("CentDisc pos %d: vector sums to %v, total %v", pos, sum, gotT)
			}
			if pos >= pureLo && wantT > 0 {
				wantCh := pos % dna.NumChannels
				bestK, bestV := -1, -1.0
				for k := 0; k < dna.NumChannels; k++ {
					if gotV[k] > bestV {
						bestK, bestV = k, gotV[k]
					}
				}
				if bestK != wantCh {
					t.Fatalf("CentDisc pure pos %d: argmax channel %d, want %d (vec %v)", pos, bestK, wantCh, gotV)
				}
			}
		}
	}
}

// TestShardedEqualsStriped: K workers writing concurrently to private
// lock-free shards, combined at the end, must match one striped
// accumulator fed the whole stream — within the per-mode tolerances
// from the PR 4 merge property tests.
func TestShardedEqualsStriped(t *testing.T) {
	const (
		L      = 160
		pureLo = 120
		K      = 4
		events = 2000
	)
	for _, mode := range allModes() {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed * 104729))
			stream := randomStream(rng, events, L, pureLo)

			striped := feed(t, mode, L, stream)

			sh, err := NewSharded(mode, L)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([][]mergeEvent, K)
			for i, ev := range stream {
				parts[i%K] = append(parts[i%K], ev)
			}
			var wg sync.WaitGroup
			for w := 0; w < K; w++ {
				shard := sh.WorkerShard()
				part := parts[w]
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, ev := range part {
						shard.AddRange(ev.start, ev.zs, ev.weight)
					}
				}()
			}
			wg.Wait()
			if got := sh.ShardCount(); got != K {
				t.Fatalf("%v: ShardCount = %d, want %d", mode, got, K)
			}
			base, err := sh.Combine()
			if err != nil {
				t.Fatalf("%v seed %d: combine: %v", mode, seed, err)
			}
			if sh.ShardCount() != 0 {
				t.Fatalf("%v: shards not released after Combine", mode)
			}
			// Both the returned base and the wrapper itself must agree
			// with the striped reference.
			checkEquivalent(t, mode, striped, base, pureLo)
			checkEquivalent(t, mode, striped, sh, pureLo)
		}
	}
}

// TestShardedLazyCombine: reads through the wrapper must fold in shard
// mass even when the caller never invokes Combine explicitly.
func TestShardedLazyCombine(t *testing.T) {
	sh, err := NewSharded(Norm, 32)
	if err != nil {
		t.Fatal(err)
	}
	shard := sh.WorkerShard()
	shard.AddRange(3, []Vec{{1, 0, 0, 0, 0}}, 2)
	// Direct AddRange (no shard) must also land.
	sh.AddRange(3, []Vec{{0, 1, 0, 0, 0}}, 1)
	if got := sh.Total(3); math.Abs(got-3) > 1e-9 {
		t.Fatalf("lazy Total(3) = %v, want 3", got)
	}
	v := sh.Vector(3)
	if math.Abs(v[0]-2) > 1e-9 || math.Abs(v[1]-1) > 1e-9 {
		t.Fatalf("lazy Vector(3) = %v, want [2 1 0 0 0]", v)
	}
}

// TestShardedStateInterop: a sharded accumulator's serialized state
// must load into a plain striped accumulator and vice versa — the
// cluster transport cannot tell the two apart.
func TestShardedStateInterop(t *testing.T) {
	for _, mode := range allModes() {
		const L = 64
		rng := rand.New(rand.NewSource(7))
		stream := randomStream(rng, 300, L, 48)

		sh, err := NewSharded(mode, L)
		if err != nil {
			t.Fatal(err)
		}
		shard := sh.WorkerShard()
		for _, ev := range stream {
			shard.AddRange(ev.start, ev.zs, ev.weight)
		}
		blob, err := sh.State()
		if err != nil {
			t.Fatalf("%v: state: %v", mode, err)
		}
		striped, err := New(mode, L)
		if err != nil {
			t.Fatal(err)
		}
		if err := striped.LoadStateBytes(blob); err != nil {
			t.Fatalf("%v: load into striped: %v", mode, err)
		}
		for pos := 0; pos < L; pos += 7 {
			if a, b := sh.Total(pos), striped.Total(pos); math.Abs(a-b) > 1e-9 {
				t.Fatalf("%v pos %d: sharded %v vs loaded striped %v", mode, pos, a, b)
			}
		}

		// Round-trip back into a fresh sharded wrapper with a stale shard:
		// the load must supersede it.
		sh2, err := NewSharded(mode, L)
		if err != nil {
			t.Fatal(err)
		}
		sh2.WorkerShard().AddRange(0, []Vec{{9, 9, 9, 9, 9}}, 1)
		if err := sh2.LoadStateBytes(blob); err != nil {
			t.Fatalf("%v: load into sharded: %v", mode, err)
		}
		for pos := 0; pos < L; pos += 7 {
			if a, b := sh.Total(pos), sh2.Total(pos); math.Abs(a-b) > 1e-9 {
				t.Fatalf("%v pos %d: round-trip %v vs %v", mode, pos, b, a)
			}
		}
	}
}

// TestShardedMergeSharded: merging one sharded accumulator into another
// combines both sides first.
func TestShardedMergeSharded(t *testing.T) {
	a, err := NewSharded(Norm, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSharded(Norm, 16)
	if err != nil {
		t.Fatal(err)
	}
	a.WorkerShard().AddRange(1, []Vec{{1, 0, 0, 0, 0}}, 1)
	b.WorkerShard().AddRange(1, []Vec{{0, 0, 1, 0, 0}}, 3)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Total(1); math.Abs(got-4) > 1e-9 {
		t.Fatalf("merged total = %v, want 4", got)
	}
}

// TestMergeTreeMatchesSerial: the parallel tree merge must equal a
// serial left fold for every mode (Merge is associative within the
// modes' tolerances; Norm is checked tightly).
func TestMergeTreeMatchesSerial(t *testing.T) {
	const L, K = 96, 5 // odd count exercises the leftover leg
	rng := rand.New(rand.NewSource(11))
	streams := make([][]mergeEvent, K)
	for i := range streams {
		streams[i] = randomStream(rng, 200, L, 64)
	}
	treeAccs := make([]Accumulator, K)
	serial, err := New(Norm, L)
	if err != nil {
		t.Fatal(err)
	}
	for i := range streams {
		treeAccs[i] = feed(t, Norm, L, streams[i])
		if err := serial.Merge(feed(t, Norm, L, streams[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := MergeTree(treeAccs); err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < L; pos++ {
		a, b := serial.Total(pos), treeAccs[0].Total(pos)
		if math.Abs(a-b) > 1e-3*(1+a) {
			t.Fatalf("pos %d: tree %v vs serial %v", pos, b, a)
		}
	}
}

// TestMergeTreeError: a length mismatch surfaces instead of corrupting.
func TestMergeTreeError(t *testing.T) {
	a, _ := New(Norm, 8)
	b, _ := New(Norm, 9)
	if err := MergeTree([]Accumulator{a, b}); err == nil {
		t.Fatal("expected mode/length mismatch error")
	}
}

// TestEstimateBytes pins the per-position estimates against the real
// allocators (CentDisc adds a shared codebook on top of its 5 B/base).
func TestEstimateBytes(t *testing.T) {
	const L = 10_000
	for _, mode := range allModes() {
		acc, err := New(mode, L)
		if err != nil {
			t.Fatal(err)
		}
		est, real := EstimateBytes(mode, L), acc.MemoryBytes()
		if est > real {
			t.Errorf("%v: estimate %d exceeds real footprint %d", mode, est, real)
		}
		if real > est+512*1024 { // codebook & slack stay well under this
			t.Errorf("%v: estimate %d far below real footprint %d", mode, est, real)
		}
	}
}
