package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/obs"
	"gnumap/internal/phmm"
	"gnumap/internal/simulate"
)

// mapRead is the read-at-a-time oracle: one read per mapBatch call, so
// no lanes are ever packed across reads.
func (m *mapper) mapRead(rd *fastq.Read, emit func(int, []location) error) error {
	return m.mapBatch([]*fastq.Read{rd}, false, emit)
}

// identityReads builds the property matrix of the cross-read identity
// test on a repeat-rich reference: simulated reads of three lengths
// from both strands (multi-mapped where they fall in repeat copies), a
// quarter of them with N calls, interleaved so every chunk mixes
// shapes; reads within Pad of both genome edges, whose clipped windows
// land in odd (window, diag) bins;
// reads from another genome (unmapped); and malformed reads.
func identityReads(t *testing.T) (*genome.Reference, []*fastq.Read) {
	t.Helper()
	g, err := simulate.Genome(simulate.GenomeConfig{Length: 24000, DispersedRepeatFraction: 0.3, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := simulate.Catalog(g, simulate.CatalogConfig{Count: 5, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	ind, err := simulate.Mutate(g, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	var reads []*fastq.Read
	for i, length := range []int{40, 62, 100} {
		rs, err := simulate.Reads(ind, simulate.ReadConfig{Length: length, Coverage: 1.2, Seed: int64(80 + i)})
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, rs...)
	}
	// N calls in every fourth read: extraction splits their match mass
	// four ways under ByCall, a branch concrete reads never take.
	for i := 0; i < len(reads); i += 4 {
		seq := reads[i].Seq
		seq[(7*i)%len(seq)], seq[(13*i+5)%len(seq)] = dna.N, dna.N
	}
	other, err := simulate.Genome(simulate.GenomeConfig{Length: 3000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	cut := func(name string, from dna.Seq, pos, length int, rc bool) *fastq.Read {
		seq := append(dna.Seq(nil), from[pos:pos+length]...)
		if rc {
			seq = seq.ReverseComplement()
		}
		qual := make([]uint8, length)
		for i := range qual {
			qual[i] = uint8(20 + (pos+i)%20)
		}
		return &fastq.Read{Name: name, Seq: seq, Qual: qual}
	}
	for off := 0; off < 8; off++ {
		for _, length := range []int{40, 62} {
			reads = append(reads,
				cut("left", g, off, length, off%2 == 1),
				cut("right", g, len(g)-length-off, length, off%2 == 0))
		}
		reads = append(reads, cut("foreign", other, 100*off, 62, false))
	}
	reads = append(reads,
		&fastq.Read{Name: "short-qual", Seq: g[500:562], Qual: make([]uint8, 10)},
		&fastq.Read{Name: "empty"},
		&fastq.Read{Name: "all-N", Seq: make(dna.Seq, 62), Qual: make([]uint8, 62)})
	for i := range reads[len(reads)-1].Seq {
		reads[len(reads)-1].Seq[i] = dna.N
	}
	rand.New(rand.NewSource(5)).Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	ref, err := genome.NewSingleContig("chrI", g)
	if err != nil {
		t.Fatal(err)
	}
	return ref, reads
}

// mappingOutcome is everything a mapping run must reproduce bit for bit:
// the accumulator state, the stats, and the growth of the engine's lane
// counters over the run.
type mappingOutcome struct {
	state []byte
	stats Stats
	// cells, full, partial, shared and alignments are phmm.cells,
	// phmm.batch.lanes.full, phmm.batch.lanes.partial,
	// map.alignments.shared and map.alignments.
	cells, full, partial, shared, alignments int64
}

// laneCounters names mappingOutcome's counters, in field order.
var laneCounters = [...]string{"phmm.cells", "phmm.batch.lanes.full", "phmm.batch.lanes.partial", "map.alignments.shared", "map.alignments"}

// groupedMapper is one engine's warm mapper on a single worker, whose
// registry holds the engine's counters.
type groupedMapper struct {
	ref *genome.Reference
	m   *mapper
	reg *obs.Registry
}

func newGroupedMapper(t *testing.T, ref *genome.Reference, cfg Config) groupedMapper {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Workers, cfg.Metrics = 1, reg
	eng, err := NewEngine(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := eng.getMapper()
	if err != nil {
		t.Fatal(err)
	}
	return groupedMapper{ref: ref, m: m, reg: reg}
}

// mapGrouped maps reads into a fresh accumulator through one mapBatch
// call per batch consecutive reads — one read per call, the mapRead
// oracle, at batch 1.
func (g groupedMapper) mapGrouped(t *testing.T, reads []*fastq.Read, batch int) mappingOutcome {
	t.Helper()
	acc, err := genome.New(genome.Norm, g.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	var before [len(laneCounters)]int64
	for i, name := range laneCounters {
		before[i] = g.reg.Counter(name).Value()
	}
	var out mappingOutcome
	sink := g.m.accumulate(acc, &out.stats)
	for lo := 0; lo < len(reads); lo += batch {
		if err := g.m.mapBatch(reads[lo:min(lo+batch, len(reads))], false, sink); err != nil {
			t.Fatal(err)
		}
	}
	if out.state, err = acc.State(); err != nil {
		t.Fatal(err)
	}
	for i, c := range []*int64{&out.cells, &out.full, &out.partial, &out.shared, &out.alignments} {
		*c = g.reg.Counter(laneCounters[i]).Value() - before[i]
	}
	return out
}

// TestMapReadsBatchedMatchesScalar is the engine-level identity gate of
// cross-read lane packing and of stripe-wide posterior extraction: on
// one warm mapper, however the reads are grouped into mapBatch calls
// and at every PhmmBatch width, under either attribution, mapping must
// produce bit-identical accumulator state, identical stats, and an
// identical phmm.cells metric to one-pair groups mapping one read at a
// time (mapRead). Groups of 1, 7, 64, 65 and 200 reads straddle the
// batchReads chunk (1 packs nothing; 65 and 200 leave ragged chunks);
// width 3 exercises narrow groups and one-lane tails; a zero PhmmBatch
// means DefaultPhmmBatch lanes, and width 16 resolves to the sweep's 8
// (the same lane groups as width 8). Every queued window is counted in
// exactly one lane group or as sharing another's alignment. All of it
// runs under the AVX-512, the AVX2 and the Go rows, whose one-pair
// states must all be equal. The ViterbiOnly ablation, which bins
// nothing, must not depend on the grouping — nor accumulate the marginal
// alignment.
func TestMapReadsBatchedMatchesScalar(t *testing.T) {
	if w := (Config{}).withDefaults().PhmmBatch; w != DefaultPhmmBatch {
		t.Fatalf("zero PhmmBatch resolves to %d lanes, want DefaultPhmmBatch", w)
	}
	if w := (Config{PhmmBatch: 16}).withDefaults().PhmmBatch; w != phmm.MaxBatch {
		t.Fatalf("PhmmBatch 16 resolves to %d lanes, want phmm.MaxBatch", w)
	}
	ref, reads := identityReads(t)
	var marginal []byte    // ByCall, the ablation's attribution
	var baseline [2][]byte // by attribution: the first kernel's one-pair state
	for _, kernel := range []string{"avx512", "avx2", "generic"} {
		t.Run(kernel, func(t *testing.T) {
			if !setKernel(t, kernel) {
				t.Skipf("host cannot run the %s rows", kernel)
			}
			// Each attribution, and each width within it, maps on its
			// own engine and mapper, in parallel with the others.
			for _, attr := range []phmm.Attribution{phmm.ByCall, phmm.ByPWM} {
				t.Run(fmt.Sprintf("attribution=%d", attr), func(t *testing.T) {
					t.Parallel()
					want := newGroupedMapper(t, ref, Config{PhmmBatch: 1, Attribution: attr}).mapGrouped(t, reads, 1)
					if st := baseline[attr]; st != nil && !bytes.Equal(st, want.state) {
						t.Errorf("one-pair groups' state differs between kernels")
					}
					baseline[attr] = want.state
					if attr == phmm.ByCall {
						marginal = want.state
					}
					if want.stats.Unmapped < 5 || want.stats.Locations <= want.stats.Mapped {
						t.Fatalf("dataset lost its unmapped or multi-mapped reads: %+v", want.stats)
					}
					var lanes [2]map[int][2]int64 // width 8's, width 16's: batch -> full, partial
					t.Run("widths", func(t *testing.T) {
						for _, width := range []int{8, 3, 16} {
							t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
								t.Parallel()
								g := newGroupedMapper(t, ref, Config{PhmmBatch: width, Attribution: attr})
								seen := map[int][2]int64{}
								for _, batch := range []int{1, 7, 64, 65, 200} {
									got := g.mapGrouped(t, reads, batch)
									label := fmt.Sprintf("batch %d", batch)
									if got.stats.Mapped != want.stats.Mapped || got.stats.Unmapped != want.stats.Unmapped ||
										got.stats.Locations != want.stats.Locations {
										t.Errorf("%s: stats %+v != one-lane %+v", label, got.stats, want.stats)
									}
									if got.cells != want.cells {
										t.Errorf("%s: phmm.cells %d != one-lane %d", label, got.cells, want.cells)
									}
									if !bytes.Equal(got.state, want.state) {
										t.Errorf("%s: accumulator state diverges from one-lane sweeps", label)
									}
									if got.full+got.partial+got.shared != got.alignments {
										t.Errorf("%s: lanes %d full + %d partial + %d shared != %d alignments", label, got.full, got.partial, got.shared, got.alignments)
									}
									if batch >= 64 && got.full < 2*got.partial {
										t.Errorf("%s: only %d of %d alignments in full-width groups", label, got.full, got.full+got.partial)
									}
									seen[batch] = [2]int64{got.full, got.partial}
								}
								switch width {
								case 8:
									lanes[0] = seen
								case 16:
									lanes[1] = seen
								}
							})
						}
					})
					if fmt.Sprint(lanes[0]) != fmt.Sprint(lanes[1]) {
						t.Errorf("width 16 swept lanes (full, partial) by batch %v; width 8 swept %v", lanes[1], lanes[0])
					}
				})
			}
		})
	}
	vit := newGroupedMapper(t, ref, Config{ViterbiOnly: true})
	one, packed := vit.mapGrouped(t, reads, 1), vit.mapGrouped(t, reads, 64)
	if one.stats.Mapped == 0 {
		t.Fatal("ViterbiOnly mapped no reads")
	}
	if !bytes.Equal(one.state, packed.state) || one.stats.Locations != packed.stats.Locations {
		t.Errorf("ViterbiOnly: groups of 64 (%+v) diverge from one read at a time (%+v)", packed.stats, one.stats)
	}
	if bytes.Equal(one.state, marginal) {
		t.Error("ViterbiOnly accumulated the marginal alignment")
	}
}

// TestMapperScratchOutlivesCall: the engine keeps its mappers between
// mapping calls, so a second call reuses the first one's warm scratch
// and keeps billing phmm.cells as deltas against the reused aligners;
// a zero-read call builds no batch scratch at all.
func TestMapperScratchOutlivesCall(t *testing.T) {
	p := makePipeline(t, 20000, 2, 2, 61)
	reg := obs.NewRegistry()
	eng, err := NewEngine(p.ref, Config{Workers: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	mapAll := func(reads []*fastq.Read) int64 {
		t.Helper()
		acc, err := genome.New(genome.Norm, p.ref.Len())
		if err != nil {
			t.Fatal(err)
		}
		before := reg.Counter("phmm.cells").Value()
		if _, err := eng.MapReads(reads, acc); err != nil {
			t.Fatal(err)
		}
		return reg.Counter("phmm.cells").Value() - before
	}
	mapAll(nil)
	if len(eng.idle) != 1 {
		t.Fatalf("%d idle mappers after a one-worker call, want 1", len(eng.idle))
	}
	m := eng.idle[0]
	if m.pwms != nil || m.pending != nil || m.arena != nil {
		t.Error("a zero-read call allocated batch scratch")
	}
	first := mapAll(p.reads)
	second := mapAll(p.reads)
	if first == 0 || second != first {
		t.Errorf("phmm.cells billed %d then %d for the same reads on a reused mapper", first, second)
	}
	if len(eng.idle) != 1 || eng.idle[0] != m {
		t.Error("later calls did not reuse the idle mapper")
	}
}
