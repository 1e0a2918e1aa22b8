package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/kmer"
	"gnumap/internal/lrt"
	"gnumap/internal/obs"
	"gnumap/internal/pwm"
	"gnumap/internal/simulate"
	"gnumap/internal/snp"
)

// oneWorkerRun is what one single-worker mapping run produced, for the
// comparisons against a test-only engine variant.
type oneWorkerRun struct {
	acc      genome.Accumulator
	state    []byte
	stats    Stats
	counters map[string]int64
	calls    []snp.Call
}

// mapWith maps reads on one worker of an engine that set (when non-nil)
// has adjusted — a candidate source, window sharing or seed sampling
// switched off — then calls SNPs.
func mapWith(t *testing.T, ref *genome.Reference, reads []*fastq.Read, set func(*Engine)) oneWorkerRun {
	t.Helper()
	reg := obs.NewRegistry()
	eng, err := NewEngine(ref, Config{Workers: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if set != nil {
		set(eng)
	}
	acc, err := genome.New(genome.Norm, ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.MapReads(reads, acc)
	if err != nil {
		t.Fatal(err)
	}
	state, err := acc.State()
	if err != nil {
		t.Fatal(err)
	}
	calls, _, err := snp.CallAll(ref, acc, snp.Config{Ploidy: lrt.Monoploid})
	if err != nil {
		t.Fatal(err)
	}
	return oneWorkerRun{acc: acc, state: state, stats: st, counters: reg.Snapshot(0).Counters, calls: calls}
}

// repeatDataset is the 80 kbp repeat-rich dataset of the genome-split
// equivalence test (gnumap.SimulateDataset's steps at its settings).
func repeatDataset(t *testing.T, seed int64) (*genome.Reference, []*fastq.Read) {
	t.Helper()
	g, err := simulate.Genome(simulate.GenomeConfig{Length: 80000, DispersedRepeatFraction: 0.25, TandemRepeatFraction: 0.05, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := simulate.Catalog(g, simulate.CatalogConfig{Count: 80, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	ind, err := simulate.Mutate(g, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := simulate.Reads(ind, simulate.ReadConfig{Length: 62, Coverage: 12, Seed: seed + 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := genome.NewSingleContig("sim", g)
	if err != nil {
		t.Fatal(err)
	}
	return ref, reads
}

// qualRead is a read of a copy of s with varied base qualities.
func qualRead(name string, s dna.Seq) *fastq.Read {
	qual := make([]uint8, len(s))
	for i := range qual {
		qual[i] = uint8(12 + (7*i)%29)
	}
	return &fastq.Read{Name: name, Seq: append(dna.Seq(nil), s...), Qual: qual}
}

// edgeReads is a genome whose first Pad+64 bases repeat as its last,
// with its length chosen so that the band-spaced source (below) queues
// a 64-base read at starts 0 and L-64: clipped windows byte-equal to
// each other, on diagonals 0 and Pad. That source also queues every
// window on both strands, so every read has byte-equal windows on the
// same diagonal of the other strand. Neither pair may share.
func edgeReads(t *testing.T) (*genome.Reference, []*fastq.Read) {
	t.Helper()
	cfg := (Config{}).withDefaults()
	const n = 64
	g, err := simulate.Genome(simulate.GenomeConfig{Length: 100*cfg.effectiveBand() - cfg.Pad, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	g = append(g, g[:n+cfg.Pad]...)
	reads := []*fastq.Read{qualRead("prefix", g[:n]), qualRead("middle", g[900:900+n].ReverseComplement())}
	ref, err := genome.NewSingleContig("edges", g)
	if err != nil {
		t.Fatal(err)
	}
	return ref, reads
}

// TestWindowSharingIsExact: a read's window that repeats one it already
// queued on the same strand and diagonal shares that alignment instead
// of sweeping its own. The oracle is the same engine with sharing off:
// on the repeat-rich 80 kbp dataset, the identity test's reads and the
// edge cases above (through the band-spaced source), sharing must leave
// the accumulator bytes, the Stats, every map.* counter and the calls
// unchanged, and the cells it computed plus those it shared must be the
// cells the oracle computed.
func TestWindowSharingIsExact(t *testing.T) {
	type dataset struct {
		name   string
		build  func(*testing.T) (*genome.Reference, []*fastq.Read)
		source candidateSource
		// shares: the dataset has windows to share; the edge cases have
		// only windows that must not be.
		shares bool
	}
	sets := []dataset{{"identity", identityReads, nil, true}, {"edges", edgeReads, bandSpaced, false}}
	for _, seed := range []int64{3, 7} {
		sets = append(sets, dataset{fmt.Sprintf("repeats-seed%d", seed), func(t *testing.T) (*genome.Reference, []*fastq.Read) {
			return repeatDataset(t, seed)
		}, nil, true})
	}
	for _, ds := range sets {
		t.Run(ds.name, func(t *testing.T) {
			t.Parallel()
			ref, reads := ds.build(t)
			sharing := func(share bool) func(*Engine) {
				return func(e *Engine) {
					if ds.source != nil {
						e.source = ds.source
					}
					e.testNoShare = !share
				}
			}
			got, want := mapWith(t, ref, reads, sharing(true)), mapWith(t, ref, reads, sharing(false))
			if !bytes.Equal(got.state, want.state) {
				t.Error("accumulator state differs from unshared windows")
			}
			if fmt.Sprint(got.stats) != fmt.Sprint(want.stats) {
				t.Errorf("Stats %+v, unshared %+v", got.stats, want.stats)
			}
			for name, v := range want.counters {
				if strings.HasPrefix(name, "map.") && name != "map.alignments.shared" && got.counters[name] != v {
					t.Errorf("%s = %d, unshared %d", name, got.counters[name], v)
				}
			}
			if !reflect.DeepEqual(got.calls, want.calls) {
				t.Errorf("%d calls differ from unshared windows' %d", len(got.calls), len(want.calls))
			}
			shared, sharedCells := got.counters["map.alignments.shared"], got.counters["phmm.cells.shared"]
			if (shared > 0) != ds.shares || want.counters["map.alignments.shared"] != 0 {
				t.Errorf("map.alignments.shared %d with sharing, %d without", shared, want.counters["map.alignments.shared"])
			}
			if c := got.counters["phmm.cells"]; c+sharedCells != want.counters["phmm.cells"] {
				t.Errorf("phmm.cells %d + shared %d != unshared %d", c, sharedCells, want.counters["phmm.cells"])
			}
		})
	}
}

// bandSpaced is the exhaustive candidate source: every diagonal of the
// genome, one band apart, on both strands — no seeds, no vote cut, no
// candidate cap. Each alignment's band covers the starts within half a
// band of its diagonal, so together they reach every start.
func bandSpaced(m *mapper, _ *pwm.Matrix) []scoredCand {
	cands := m.scored[:0]
	for sc := range 2 {
		for s := 0; s < m.e.ref.Len(); s += m.e.band {
			cands = append(cands, scoredCand{sc: sc, cand: kmer.Candidate{Start: int32(s)}})
		}
	}
	m.scored = cands
	return cands
}

// TestBandSpacedSourceMapsSmallGenome: the mapper takes its candidates
// from a source, and one that yields every band-spaced diagonal maps a
// small genome's reads from both strands with nothing pruned. It queues
// exactly every diagonal of every well-formed read, maps every read the
// seed index maps, and calls every planted SNP the seed index calls.
func TestBandSpacedSourceMapsSmallGenome(t *testing.T) {
	p := makePipeline(t, 3000, 4, 4, 23)
	reads := append([]*fastq.Read{{Name: "empty"}}, p.reads...)
	rand.New(rand.NewSource(1)).Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	idx := mapWith(t, p.ref, reads, nil)
	all := mapWith(t, p.ref, reads, func(e *Engine) { e.source = bandSpaced })
	band := (Config{}).withDefaults().effectiveBand()
	diags := int64(2 * ((p.ref.Len() + band - 1) / band))
	if n := all.counters["map.alignments"]; n != diags*int64(len(p.reads)) {
		t.Errorf("map.alignments %d, want %d diagonals x %d reads", n, diags, len(p.reads))
	}
	if all.stats.Mapped < idx.stats.Mapped || all.stats.Unmapped != 1 {
		t.Errorf("band-spaced source mapped %+v, seed index %+v (want every read but the empty one)", all.stats, idx.stats)
	}
	called := map[int]bool{}
	for _, c := range all.calls {
		called[c.GlobalPos] = true
	}
	for _, c := range idx.calls {
		if !called[c.GlobalPos] {
			t.Errorf("seed index calls position %d, band-spaced source does not", c.GlobalPos)
		}
	}
	if len(idx.calls) < len(p.cat)-1 {
		t.Fatalf("seed index called %d of %d planted SNPs: the comparison is vacuous", len(idx.calls), len(p.cat))
	}
}
