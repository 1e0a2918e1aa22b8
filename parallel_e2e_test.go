package gnumap

import (
	"reflect"
	"testing"
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

// A sharded-accumulation pipeline must call the same variants as the
// striped one over the same reads: accumulation order changes float
// summation order, so per-position mass is tolerance-equal rather than
// bit-equal, but the planted SNPs are far from the decision boundary.
func TestPipelineShardedMatchesStriped(t *testing.T) {
	ds := dataset(t)
	run := func(strategy AccumStrategy) []SNPCall {
		t.Helper()
		opts := Options{Engine: EngineConfig{Workers: 4, Accum: strategy}}
		p, err := NewPipeline(ds.Reference, opts)
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
	striped := run(AccumStriped)
	sharded := run(AccumSharded)
	if len(striped) != len(sharded) {
		t.Fatalf("call counts diverge: striped %d vs sharded %d", len(striped), len(sharded))
	}
	for i := range striped {
		if striped[i].GlobalPos != sharded[i].GlobalPos || striped[i].Allele != sharded[i].Allele {
			t.Errorf("call %d: striped %d/%v vs sharded %d/%v", i,
				striped[i].GlobalPos, striped[i].Allele, sharded[i].GlobalPos, sharded[i].Allele)
		}
	}
	m := Evaluate(sharded, ds.Truth)
	if m.TP == 0 {
		t.Error("sharded pipeline recovered no planted SNPs")
	}
}
