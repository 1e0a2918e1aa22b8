package snp

import (
	"math/rand"
	"reflect"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/genome"
	"gnumap/internal/lrt"
	"gnumap/internal/obs"
)

// bigFixture plants pseudo-random evidence across a genome long enough
// to clear minParallelRange, mixing hom-alt, het, ref-confirming, and
// thin-coverage sites so every caller branch is exercised.
func bigFixture(t testing.TB, length int, seed int64) (*genome.Reference, genome.Accumulator) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seq := make(dna.Seq, length)
	for i := range seq {
		seq[i] = dna.Code(rng.Intn(4))
	}
	ref, err := genome.NewSingleContig("chrBig", seq)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := genome.New(genome.Norm, length)
	if err != nil {
		t.Fatal(err)
	}
	vecFor := func(ch dna.Channel) genome.Vec {
		var v genome.Vec
		for k := range v {
			v[k] = 0.01
		}
		v[ch] = 0.96
		return v
	}
	for pos := 0; pos < length; pos += 3 + rng.Intn(5) {
		refCh := dna.Channel(seq[pos])
		altCh := dna.Channel((int(refCh) + 1 + rng.Intn(3)) % 4)
		depth := 1 + rng.Intn(20)
		var v genome.Vec
		switch rng.Intn(4) {
		case 0: // hom alt
			v = vecFor(altCh)
		case 1: // ref confirming
			v = vecFor(refCh)
		case 2: // het: half ref, half alt
			half := vecFor(refCh)
			for i := 0; i < depth/2; i++ {
				acc.AddRange(pos, []genome.Vec{half}, 1)
			}
			v = vecFor(altCh)
			depth -= depth / 2
		default: // noisy
			v = genome.Vec{0.3, 0.3, 0.2, 0.15, 0.05}
		}
		for i := 0; i < depth; i++ {
			acc.AddRange(pos, []genome.Vec{v}, 1)
		}
	}
	return ref, acc
}

// Satellite: the parallel caller must be bit-identical to the serial
// one — candidates, calls, stats, and FDR decisions — at several worker
// counts, including one (7) that does not divide the chunk count and
// exceeds it.
func TestCollectRangeParallelBitIdentical(t *testing.T) {
	const length = 20_000
	ref, acc := bigFixture(t, length, 42)
	base := Config{Ploidy: lrt.Diploid}

	wantCands, wantSt, err := CollectRange(ref, acc, 0, 0, length, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantCands) == 0 || wantSt.Tested == 0 {
		t.Fatal("fixture produced no candidates; test is vacuous")
	}

	for _, workers := range []int{1, 4, 7} {
		cfg := base
		cfg.CallWorkers = workers
		gotCands, gotSt, err := CollectRangeParallel(ref, acc, 0, 0, length, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(gotCands, wantCands) {
			t.Fatalf("workers=%d: candidates diverge from serial (%d vs %d)", workers, len(gotCands), len(wantCands))
		}
		if !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, gotSt, wantSt)
		}
	}
}

// The full CallRange path (parallel sweep + the single global FDR pass)
// must match the serial caller exactly, including which candidates the
// Benjamini–Hochberg step keeps.
func TestCallRangeParallelFDRIdentical(t *testing.T) {
	const length = 24_000
	ref, acc := bigFixture(t, length, 7)
	serial := Config{Ploidy: lrt.Diploid, UseFDR: true, CallWorkers: 1}
	wantCalls, wantSt, err := CallRange(ref, acc, 0, 0, length, serial)
	if err != nil {
		t.Fatal(err)
	}
	if wantSt.Significant == 0 {
		t.Fatal("fixture produced no significant calls; test is vacuous")
	}
	for _, workers := range []int{4, 7} {
		cfg := serial
		cfg.CallWorkers = workers
		gotCalls, gotSt, err := CallRange(ref, acc, 0, 0, length, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(gotCalls, wantCalls) {
			t.Fatalf("workers=%d: calls diverge from serial", workers)
		}
		if !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, gotSt, wantSt)
		}
	}
}

// Windowed sweeps with deliberately out-of-range bounds (the
// genome-split shard shape) must clamp and chunk identically to the
// serial path.
func TestCollectRangeParallelOffset(t *testing.T) {
	const length = 40_000
	ref, full := bigFixture(t, length, 99)
	const offset, subLen = 10_000, 20_000
	cfg := Config{Ploidy: lrt.Diploid}
	wantCands, wantSt, err := CollectRange(ref, full, 0, offset-500, offset+subLen+999, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CallWorkers = 4
	gotCands, gotSt, err := CollectRangeParallel(ref, full, 0, offset-500, offset+subLen+999, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCands, wantCands) || !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatalf("windowed sweep diverges: %d/%+v vs %d/%+v", len(gotCands), gotSt, len(wantCands), wantSt)
	}
}

// The sweep must publish call.workers / call.chunks / call.sweep.seconds
// when a registry is attached — one chunk per tile here, at four workers
// — and fall back to the serial path (no metrics beyond what
// CollectRange emits) for short ranges.
func TestCollectRangeParallelMetrics(t *testing.T) {
	const length = 20_000
	ref, acc := bigFixture(t, length, 5)
	reg := obs.NewRegistry()
	cfg := Config{Ploidy: lrt.Diploid, CallWorkers: 4, Metrics: reg}
	if _, _, err := CollectRangeParallel(ref, acc, 0, 0, length, cfg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot(0)
	if got := snap.Gauges["call.workers"]; got != 4 {
		t.Errorf("call.workers = %v, want 4", got)
	}
	wantChunks := (length + genome.TileSize - 1) / genome.TileSize
	if got := snap.Counters["call.chunks"]; got != int64(wantChunks) {
		t.Errorf("call.chunks = %v, want %d", got, wantChunks)
	}
	if h, ok := snap.Histograms["call.sweep.seconds"]; !ok || h.Count != int64(wantChunks) {
		t.Errorf("call.sweep.seconds observations = %+v, want %d", h, wantChunks)
	}
}
