package gnumap

import (
	"fmt"
	"testing"
)

// TestGenomeSplitMapsWhatOneProcessMaps: genome-split is a placement of
// the one-process computation. Every rank seeds against the run's one
// whole-genome index and aligns the candidates that start in its slice,
// so on a repeat-rich genome — where the seed filters decide the most —
// the ranks together accept exactly one process's locations, queue its
// Pair-HMM alignments over its DP cells, report its MapStats and call
// its SNPs. A rank shares an alignment only between windows it queued
// itself, so the cells it computes depend on the placement; the cells
// computed plus those shared do not. Each seed
// builds its dataset and one-process answer once, shares them across
// np, and runs beside the other seeds: nothing is shared between seeds.
func TestGenomeSplitMapsWhatOneProcessMaps(t *testing.T) {
	for _, seed := range []int64{3, 7, 11, 13} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			genomeSplitMatchesOneProcess(t, seed)
		})
	}
}

func genomeSplitMatchesOneProcess(t *testing.T, seed int64) {
	ds, err := SimulateDataset(SimConfig{
		GenomeLength:            80000,
		DispersedRepeatFraction: 0.25,
		TandemRepeatFraction:    0.05,
		SNPCount:                80,
		Coverage:                12,
		Seed:                    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Engine: EngineConfig{Workers: 1}}
	one := opts
	one.Metrics = NewMetricsRegistry()
	p, err := NewPipeline(ds.Reference, one)
	if err != nil {
		t.Fatal(err)
	}
	wantSt, err := p.MapReads(ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := p.Call()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatalf("seed %d: one process called no SNPs; the test is vacuous", seed)
	}
	wantLocs := one.Metrics.Counter("map.locations").Value()
	wantAligns := one.Metrics.Counter("map.alignments").Value()
	wantCells := one.Metrics.Counter("phmm.cells").Value() + one.Metrics.Counter("phmm.cells.shared").Value()

	for _, nodes := range []int{2, 4} {
		label := fmt.Sprintf("seed %d np=%d", seed, nodes)
		calls, st, report, err := RunClusterStreamReport(nodes, Channels, GenomeSplit, ds.Reference, SliceReadSource(ds.Reads), opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if fmt.Sprint(st) != fmt.Sprint(wantSt) {
			t.Errorf("%s: MapStats %+v, one process %+v", label, st, wantSt)
		}
		m := report.Merged.Counters
		if m["map.locations"] != wantLocs || m["map.alignments"] != wantAligns {
			t.Errorf("%s: map.locations %d, map.alignments %d; one process %d, %d",
				label, m["map.locations"], m["map.alignments"], wantLocs, wantAligns)
		}
		if c := m["phmm.cells"] + m["phmm.cells.shared"]; c != wantCells {
			t.Errorf("%s: phmm.cells + phmm.cells.shared %d, one process %d", label, c, wantCells)
		}
		if len(calls) != len(want) {
			t.Errorf("%s: %d calls, one process %d", label, len(calls), len(want))
			continue
		}
		for i, w := range want {
			g := calls[i]
			if g.GlobalPos != w.GlobalPos || g.Allele != w.Allele || g.Allele2 != w.Allele2 || g.Het != w.Het {
				t.Errorf("%s: call %d = %d %v/%v het=%v, one process %d %v/%v het=%v", label, i,
					g.GlobalPos, g.Allele, g.Allele2, g.Het, w.GlobalPos, w.Allele, w.Allele2, w.Het)
			}
		}
	}
}

// TestGenomeSplitTimesEveryApply: map.accum.seconds is observed once per
// mapped read in one process; under genome-split every rank holding
// locations of a read times its apply, so the merged count lies between
// one process's Mapped (each mapped read applied somewhere) and np times
// it (applied on every rank).
func TestGenomeSplitTimesEveryApply(t *testing.T) {
	ds := dataset(t)
	const nodes = 2
	opts := Options{Engine: EngineConfig{Workers: 1}, Metrics: NewMetricsRegistry()}
	p, err := NewPipeline(ds.Reference, opts)
	if err != nil {
		t.Fatal(err)
	}
	one, err := p.MapReads(ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if got := opts.Metrics.Timer("map.accum.seconds").Count(); got != one.Mapped {
		t.Fatalf("one process: map.accum.seconds has %d observations, Mapped %d", got, one.Mapped)
	}
	_, st, report, err := RunClusterStreamReport(nodes, Channels, GenomeSplit, ds.Reference, SliceReadSource(ds.Reads), Options{Engine: EngineConfig{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mapped != one.Mapped {
		t.Fatalf("genome-split mapped %d reads, one process %d", st.Mapped, one.Mapped)
	}
	if n := report.Merged.Histograms["map.accum.seconds"].Count; n < one.Mapped || n > nodes*one.Mapped {
		t.Errorf("np=%d: map.accum.seconds has %d observations, want within [%d, %d]", nodes, n, one.Mapped, nodes*one.Mapped)
	}
}
