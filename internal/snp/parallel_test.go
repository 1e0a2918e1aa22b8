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

// bigFixture plants pseudo-random evidence across a genome of several
// tiles, mixing hom-alt, het, ref-confirming, and thin-coverage sites so
// every caller branch is exercised.
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

// tileSweep is a one-shot sweep through a fresh IncrementalCaller over
// acc (index 0 at global position offset): the candidates every call set
// of a run is finalized from.
func tileSweep(t testing.TB, ref *genome.Reference, acc genome.Accumulator, offset int, cfg Config) ([]Candidate, Stats) {
	t.Helper()
	ic, err := NewIncrementalCaller(ref, acc, offset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cands, st, err := ic.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	return cands, st
}

// serialCall is the oracle every call set is held to: one serial
// CollectRange over the whole accumulator, then FinalizeCalls, keeping
// the sweep's Tested.
func serialCall(t testing.TB, ref *genome.Reference, acc genome.Accumulator, offset int, cfg Config) ([]Call, Stats) {
	t.Helper()
	cands, st, err := CollectRange(ref, acc, offset, offset, offset+acc.Len(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	calls, fst, err := FinalizeCalls(cands, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fst.Tested = st.Tested
	return calls, fst
}

// The tile sweep must be bit-identical to the serial one — candidates
// and stats — at every worker count from 1 to 8, including ones that do
// not divide the tile count (5 here) and ones that exceed it.
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

	for workers := 1; workers <= 8; workers++ {
		cfg := base
		cfg.CallWorkers = workers
		gotCands, gotSt := tileSweep(t, ref, acc, 0, cfg)
		if !reflect.DeepEqual(gotCands, wantCands) {
			t.Fatalf("workers=%d: candidates diverge from serial (%d vs %d)", workers, len(gotCands), len(wantCands))
		}
		if !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, gotSt, wantSt)
		}
	}
}

// The full call path (tile sweep + the single global FDR pass) must
// match the serial caller exactly, including which candidates the
// Benjamini–Hochberg step keeps.
func TestCallRangeParallelFDRIdentical(t *testing.T) {
	const length = 24_000
	ref, acc := bigFixture(t, length, 7)
	cfg := Config{Ploidy: lrt.Diploid, UseFDR: true}
	wantCalls, wantSt := serialCall(t, ref, acc, 0, cfg)
	if wantSt.Significant == 0 {
		t.Fatal("fixture produced no significant calls; test is vacuous")
	}
	for _, workers := range []int{1, 4, 7} {
		cfg.CallWorkers = workers
		ic, err := NewIncrementalCaller(ref, acc, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotCalls, gotSt, err := ic.Finalize()
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

// The genome-split shape: a slice accumulator whose index 0 is a global
// position off any tile boundary of the genome. Its tile sweep must
// equal the serial sweep of the slice — clamped from deliberately
// out-of-range bounds — and the serial sweep of the same window of the
// whole-genome accumulator.
func TestCollectRangeParallelOffset(t *testing.T) {
	const length = 40_000
	ref, full := bigFixture(t, length, 99)
	const offset, subLen = 10_000, 20_000
	slice := windowOf(t, full, offset, subLen)
	cfg := Config{Ploidy: lrt.Diploid}
	wantCands, wantSt, err := CollectRange(ref, slice, offset, offset-500, offset+subLen+999, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fullCands, fullSt, err := CollectRange(ref, full, 0, offset, offset+subLen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantCands) == 0 || !reflect.DeepEqual(fullCands, wantCands) || fullSt != wantSt {
		t.Fatalf("slice sweep diverges from the whole genome's window: %d/%+v vs %d/%+v", len(wantCands), wantSt, len(fullCands), fullSt)
	}
	for _, workers := range []int{1, 4} {
		cfg.CallWorkers = workers
		gotCands, gotSt := tileSweep(t, ref, slice, offset, cfg)
		if !reflect.DeepEqual(gotCands, wantCands) || !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("workers=%d: offset tile sweep diverges: %d/%+v vs %d/%+v", workers, len(gotCands), gotSt, len(wantCands), wantSt)
		}
	}
}

// A one-shot tile sweep must count what the serial sweep counts
// (call.tested, call.prescreened) and publish call.workers, call.chunks
// and call.sweep.seconds — one chunk per tile.
func TestCollectRangeParallelMetrics(t *testing.T) {
	const length = 20_000
	ref, acc := bigFixture(t, length, 5)
	serial := obs.NewRegistry()
	if _, _, err := CollectRange(ref, acc, 0, 0, length, Config{Ploidy: lrt.Diploid, Metrics: serial}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tileSweep(t, ref, acc, 0, Config{Ploidy: lrt.Diploid, CallWorkers: 4, Metrics: reg})
	want, snap := serial.Snapshot(0), reg.Snapshot(0)
	for _, name := range []string{"call.tested", "call.prescreened"} {
		if got := snap.Counters[name]; got != want.Counters[name] || got == 0 {
			t.Errorf("%s = %d, serial sweep %d", name, got, want.Counters[name])
		}
	}
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
