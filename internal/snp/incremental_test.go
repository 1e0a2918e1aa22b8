package snp

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/genome"
	"gnumap/internal/lrt"
	"gnumap/internal/obs"
)

// Incremental calling in waves: writers AddRange into the accumulator,
// which counts its own writes per tile; sweeps run at quiesce points —
// the writers of a wave joined, as at a pipeline barrier — and both the
// provisional set after the last barrier and the final set must be
// bit-identical to one serial CollectRange over the whole accumulator
// plus FinalizeCalls (CallAll is itself a tile caller), with one writer
// and with four writing concurrently, and with the sweeps on one call
// worker and on four. Tiles untouched between sweeps must be reused,
// not re-swept.
func TestIncrementalMatchesCallAll(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			for _, callWorkers := range []int{1, 4} {
				t.Run(fmt.Sprintf("call-workers-%d", callWorkers), func(t *testing.T) {
					testIncrementalMatchesCallAll(t, workers, callWorkers)
				})
			}
		})
	}
}

func testIncrementalMatchesCallAll(t *testing.T, workers, callWorkers int) {
	const length = 40_000
	rng := rand.New(rand.NewSource(37))
	seq := make(dna.Seq, length)
	for i := range seq {
		seq[i] = dna.Code(rng.Intn(4))
	}
	ref, err := genome.NewSingleContig("chrInc", seq)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := genome.New(genome.Norm, length)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := Config{Ploidy: lrt.Diploid, UseFDR: true, CallWorkers: callWorkers}
	icCfg := cfg
	icCfg.Metrics = reg
	ic, err := NewIncrementalCaller(ref, acc, 0, icCfg)
	if err != nil {
		t.Fatal(err)
	}
	const tiles = (length + genome.TileSize - 1) / genome.TileSize
	if tiles != 10 {
		t.Fatalf("%d tiles, want 10", tiles)
	}

	// A wave is drawn from rng up front and then written by `workers`
	// goroutines, each taking every workers-th event; write returns
	// once all of them have — the quiesce point.
	type event struct {
		pos int
		zs  []genome.Vec
		w   float64
	}
	var wave []event
	write := func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(wave); i += workers {
					ev := wave[i]
					acc.AddRange(ev.pos, ev.zs, ev.w)
				}
			}(w)
		}
		wg.Wait()
		wave = wave[:0]
	}
	add := func(lo, hi, n int) {
		for i := 0; i < n; i++ {
			pos := lo + rng.Intn(hi-lo-4)
			zs := make([]genome.Vec, 1+rng.Intn(4))
			for j := range zs {
				var z genome.Vec
				z[rng.Intn(5)] = 0.5 + rng.Float64()
				z[rng.Intn(4)] += 0.3
				zs[j] = z
			}
			wave = append(wave, event{pos, zs, 0.5 + rng.Float64()})
		}
	}
	// plant drops clear homozygous-alt evidence at pos so the waves
	// produce real calls, not just noise.
	plant := func(pos int) {
		alt := (int(seq[pos]) + 1) % 4
		var z genome.Vec
		z[alt] = 3
		for i := 0; i < 3; i++ {
			wave = append(wave, event{pos, []genome.Vec{z}, 1})
		}
	}

	// Wave 1: the front half of the genome, with planted SNP sites.
	add(0, length/2, 3_000)
	for p := 100; p < length/2; p += 997 {
		plant(p)
	}
	write()
	if err := ic.Sweep(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ic.Provisional(); err != nil {
		t.Fatal(err)
	}
	sweptAfter1 := ic.RegionsSwept()
	if sweptAfter1 != tiles {
		t.Fatalf("first sweep covered %d tiles, want all %d", sweptAfter1, tiles)
	}
	if got := reg.Counter("call.chunks").Value(); got != tiles {
		t.Fatalf("call.chunks = %d after the first sweep, want one per tile (%d)", got, tiles)
	}
	if got := reg.Gauge("call.workers").Value(); got != float64(callWorkers) {
		t.Fatalf("call.workers = %v, want %d", got, callWorkers)
	}

	// Idle sweep: nothing written, everything must be reused.
	reusedBefore := ic.RegionsReused()
	if err := ic.Sweep(); err != nil {
		t.Fatal(err)
	}
	if ic.RegionsSwept() != sweptAfter1 {
		t.Fatalf("idle sweep re-swept tiles: %d -> %d", sweptAfter1, ic.RegionsSwept())
	}
	if ic.RegionsReused() != reusedBefore+tiles {
		t.Fatalf("idle sweep reused %d tiles, want all %d", ic.RegionsReused()-reusedBefore, tiles)
	}

	// Wave 2: the last two tiles only; the next sweep must only touch
	// the written tiles.
	add(length-6_000, length-1_000, 400)
	write()
	sweptBefore := ic.RegionsSwept()
	if err := ic.Sweep(); err != nil {
		t.Fatal(err)
	}
	if delta := ic.RegionsSwept() - sweptBefore; delta != 2 {
		t.Fatalf("localized wave re-swept %d tiles, want 2", delta)
	}

	// Wave 3, its barrier's provisional set, then finalize: each
	// bit-identical to the one-shot sweep.
	add(0, length, 1_500)
	for p := length/2 + 250; p < length; p += 1_501 {
		plant(p)
	}
	write()
	want, wantSt := serialCall(t, ref, acc, 0, cfg)
	if len(want) == 0 {
		t.Fatal("vacuous: no calls produced")
	}
	if err := ic.Sweep(); err != nil {
		t.Fatal(err)
	}
	prov, provSt, err := ic.Provisional()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prov, want) || provSt != wantSt {
		t.Fatalf("provisional calls after the last barrier diverge from the serial sweep: %d vs %d, stats %+v vs %+v", len(prov), len(want), provSt, wantSt)
	}
	calls, st, err := ic.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("incremental final calls diverge from the serial sweep: %d vs %d", len(calls), len(want))
	}
	if st != wantSt {
		t.Fatalf("incremental stats %+v, serial sweep %+v", st, wantSt)
	}
	if ic.Sweeps() != 5 {
		t.Fatalf("Sweeps = %d, want 5", ic.Sweeps())
	}
}

func TestIncrementalCallerValidation(t *testing.T) {
	ref, acc := fixture(t)
	if _, err := NewIncrementalCaller(nil, acc, 0, Config{}); err == nil {
		t.Error("nil reference accepted")
	}
	if _, err := NewIncrementalCaller(ref, nil, 0, Config{}); err == nil {
		t.Error("nil accumulator accepted")
	}
}
