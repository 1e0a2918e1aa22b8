package core

import (
	"math"
	"strings"
	"testing"

	"gnumap/internal/genome"
	"gnumap/internal/obs"
)

// TestNewAccumulatorKindsAndMetrics: the constructor bench/ times builds
// what genome.New builds — one striped accumulator of the requested
// layout at any worker count — and reports nothing about a choice it no
// longer makes.
func TestNewAccumulatorKindsAndMetrics(t *testing.T) {
	for _, mode := range []genome.Mode{genome.Norm, genome.CharDisc, genome.CentDisc} {
		for _, workers := range []int{1, 4} {
			reg := obs.NewRegistry()
			acc, err := NewAccumulator(mode, 10_000, Config{Workers: workers, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			want, err := genome.New(mode, 10_000)
			if err != nil {
				t.Fatal(err)
			}
			if acc.Mode() != mode || acc.MemoryBytes() != want.MemoryBytes() {
				t.Errorf("%v workers=%d: built %v/%d bytes, want one copy (%d bytes)",
					mode, workers, acc.Mode(), acc.MemoryBytes(), want.MemoryBytes())
			}
			snap := reg.Snapshot(0)
			for name := range snap.Gauges {
				if strings.HasPrefix(name, "accum.") {
					t.Errorf("%v workers=%d: gauge %s published", mode, workers, name)
				}
			}
		}
	}
}

// TestMapReadsShardedMatchesStriped: four workers contending for the
// stripe locks of one accumulator leave the mass a single writer leaves
// in its lock-free twin — the locks lose nothing and add nothing (to
// float32 summation order, which the workers' interleaving changes).
func TestMapReadsShardedMatchesStriped(t *testing.T) {
	p := makePipeline(t, 20_000, 6, 4, 42)
	run := func(workers int, acc genome.Accumulator) Stats {
		t.Helper()
		eng, err := NewEngine(p.ref, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.MapReads(p.reads, acc)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	striped, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	sh, err := genome.NewSharded(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	unlocked := sh.WorkerShard()
	stStriped, stUnlocked := run(4, striped), run(1, unlocked)
	if stStriped.Mapped != stUnlocked.Mapped || stStriped.Unmapped != stUnlocked.Unmapped ||
		stStriped.Locations != stUnlocked.Locations {
		t.Fatalf("stats diverge: 4 workers striped %+v vs 1 worker lock-free %+v", stStriped, stUnlocked)
	}
	va, vb := view(t, striped), view(t, unlocked)
	for pos := 0; pos < p.ref.Len(); pos += 101 {
		a, b := va.Total(pos), vb.Total(pos)
		if math.Abs(a-b) > 1e-3*(1+a) {
			t.Fatalf("pos %d: striped %v vs lock-free %v", pos, a, b)
		}
	}
}

// view freezes acc for a test's reads (the accumulator's only read path).
func view(t *testing.T, acc genome.Accumulator) *genome.Frozen {
	t.Helper()
	fz, err := genome.Freeze(acc)
	if err != nil {
		t.Fatal(err)
	}
	return fz
}
