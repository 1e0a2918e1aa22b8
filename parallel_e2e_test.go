package gnumap

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/genome"
)

// The parallel calling sweep must be bit-identical to the serial one
// through the full cluster stack — same calls, same FDR decisions — in
// both split modes at np=1 and np=4. The two runs differ ONLY in
// Caller.CallWorkers.
func TestClusterParallelCallerDeterminism(t *testing.T) {
	ds := dataset(t)
	for _, nodes := range []int{1, 4} {
		for _, mode := range []SplitMode{ReadSplit, GenomeSplit} {
			base := Options{Engine: EngineConfig{Workers: 1}}
			base.Caller.UseFDR = true
			base.Caller.CallWorkers = 1
			want, wantSt, err := RunClusterStream(nodes, Channels, mode, ds.Reference, SliceReadSource(ds.Reads), base)
			if err != nil {
				t.Fatalf("np=%d %v serial: %v", nodes, mode, err)
			}
			if len(want) == 0 {
				t.Fatalf("np=%d %v: serial run found no SNPs; test is vacuous", nodes, mode)
			}

			par := base
			par.Caller.CallWorkers = 4
			par.Caller.CallChunk = 4096
			got, gotSt, err := RunClusterStream(nodes, Channels, mode, ds.Reference, SliceReadSource(ds.Reads), par)
			if err != nil {
				t.Fatalf("np=%d %v parallel: %v", nodes, mode, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("np=%d %v: parallel caller diverges from serial (%d vs %d calls)",
					nodes, mode, len(got), len(want))
			}
			if gotSt.Mapped != wantSt.Mapped || gotSt.Unmapped != wantSt.Unmapped {
				t.Errorf("np=%d %v: map stats diverge: %+v vs %+v", nodes, mode, gotSt, wantSt)
			}
		}
	}
}

// Four mapping workers must call the same variants as one over the same
// reads: both write the one striped accumulator, but the workers'
// interleaving changes float32 summation order, so per-position mass is
// tolerance-equal rather than bit-equal — the planted SNPs are far from
// the decision boundary. (The name dates from when the four-worker run
// wrote per-worker shards; it is a floor test, so the name stays.)
func TestPipelineShardedMatchesStriped(t *testing.T) {
	ds := dataset(t)
	run := func(workers int) []SNPCall {
		t.Helper()
		p, err := NewPipeline(ds.Reference, Options{Engine: EngineConfig{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.MapReads(ds.Reads); err != nil {
			t.Fatal(err)
		}
		calls, _, err := p.Call()
		if err != nil {
			t.Fatal(err)
		}
		return calls
	}
	one, four := run(1), run(4)
	if len(one) != len(four) {
		t.Fatalf("call counts diverge: 1 worker %d vs 4 workers %d", len(one), len(four))
	}
	for i := range one {
		if one[i].GlobalPos != four[i].GlobalPos || one[i].Allele != four[i].Allele {
			t.Errorf("call %d: 1 worker %d/%v vs 4 workers %d/%v", i,
				one[i].GlobalPos, one[i].Allele, four[i].GlobalPos, four[i].Allele)
		}
	}
	if m := Evaluate(four, ds.Truth); m.TP == 0 {
		t.Error("four-worker pipeline recovered no planted SNPs")
	}
}

// Genome state does not scale with workers: after mapping and before
// calling, a four-worker pipeline holds exactly the one accumulator a
// one-worker pipeline holds — genome.EstimateBytes plus, for CENTDISC,
// the shared codebook — in every -memory layout.
func TestAccumulatorMemoryIndependentOfWorkers(t *testing.T) {
	ds := dataset(t)
	for _, mode := range []MemoryMode{MemNorm, MemCharDisc, MemCentDisc} {
		var got [2]int64
		for i, workers := range []int{1, 4} {
			p, err := NewPipeline(ds.Reference, Options{Memory: mode, Engine: EngineConfig{Workers: workers}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.MapReads(ds.Reads); err != nil {
				t.Fatal(err)
			}
			got[i] = p.AccumulatorMemoryBytes()
		}
		est := genome.EstimateBytes(mode, 40000)
		one, err := genome.New(mode, 40000)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != got[1] || got[0] != one.MemoryBytes() {
			t.Errorf("%v: %d bytes at 1 worker, %d at 4, one accumulator is %d", mode, got[0], got[1], one.MemoryBytes())
		}
		if got[1] < est || got[1] >= 2*est {
			t.Errorf("%v: %d bytes at 4 workers, estimate for one copy %d", mode, got[1], est)
		}
	}
}

// An incremental pipeline sweeps its accumulator in place: what
// Options.Incremental adds to a pipeline's live heap is the region
// tracker and the candidate caches, not a second genome-sized copy.
func TestIncrementalPipelineHoldsOneCopy(t *testing.T) {
	const length = 1 << 20 // 20 MiB of NORM planes
	rng := rand.New(rand.NewSource(5))
	seq := make(dna.Seq, length)
	for i := range seq {
		seq[i] = dna.Code(rng.Intn(4))
	}
	reference := []*Contig{{Name: "chr1", Seq: seq}}
	live := func(opts Options) int64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		p, err := NewPipeline(reference, opts)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if got, want := p.AccumulatorMemoryBytes(), genome.EstimateBytes(genome.Norm, length); got != want {
			t.Fatalf("accumulator holds %d bytes, want %d", got, want)
		}
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	plain := live(Options{})
	inc := live(Options{Incremental: &IncrementalCallConfig{}})
	if extra, copyBytes := inc-plain, genome.EstimateBytes(genome.Norm, length); extra > copyBytes/4 {
		t.Errorf("Options.Incremental adds %d live bytes to a pipeline; a genome-state copy is %d", extra, copyBytes)
	}
}
