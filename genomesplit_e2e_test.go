package gnumap

import (
	"fmt"
	"testing"
)

// TestGenomeSplitMapsWhatOneProcessMaps: genome-split is a placement of
// the one-process computation. Every rank seeds against the run's one
// whole-genome index and aligns the candidates that start in its slice,
// so on a repeat-rich genome — where the seed filters decide the most —
// the ranks together accept exactly one process's locations, run its
// Pair-HMM alignments, report its MapStats and call its SNPs. Each seed
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
