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

// mappingOutcome is everything a mapping run must reproduce bit for bit.
type mappingOutcome struct {
	state []byte
	stats Stats
	cells int64
}

// runMapping maps reads on a single worker and returns the outcome plus
// the run's metrics registry.
func runMapping(t *testing.T, ref *genome.Reference, reads []*fastq.Read, cfg Config) (mappingOutcome, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Workers, cfg.Metrics = 1, reg
	eng, err := NewEngine(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := genome.New(genome.Norm, ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.MapReads(reads, acc, 0)
	if err != nil {
		t.Fatal(err)
	}
	state, err := acc.State()
	if err != nil {
		t.Fatal(err)
	}
	return mappingOutcome{state: state, stats: st, cells: reg.Counter("phmm.cells").Value()}, reg
}

// TestMapReadsBatchedMatchesScalar is the engine-level identity gate of
// cross-read lane packing and of stripe-wide posterior extraction: with
// a single worker (deterministic accumulation order), every (Batch,
// PhmmBatch) combination under either attribution must produce
// bit-identical accumulator state, identical stats, and an identical
// phmm.cells metric to the scalar kernel mapping one read at a time.
// Batch sizes straddle the 64-read chunk (1 packs nothing; 65 and 200
// leave ragged chunks); width 3 exercises narrow groups and scalar
// leftovers.
func TestMapReadsBatchedMatchesScalar(t *testing.T) {
	ref, reads := identityReads(t)
	for _, attr := range []phmm.Attribution{phmm.ByCall, phmm.ByPWM} {
		want, _ := runMapping(t, ref, reads, Config{PhmmBatch: -1, Batch: 1, Attribution: attr})
		if want.stats.Unmapped < 5 || want.stats.Locations <= want.stats.Mapped {
			t.Fatalf("dataset lost its unmapped or multi-mapped reads: %+v", want.stats)
		}
		for _, width := range []int{8, 3} {
			for _, batch := range []int{1, 7, 64, 65, 200} {
				got, reg := runMapping(t, ref, reads, Config{PhmmBatch: width, Batch: batch, Attribution: attr})
				label := fmt.Sprintf("attribution %d width %d batch %d", attr, width, batch)
				if got.stats.Mapped != want.stats.Mapped || got.stats.Unmapped != want.stats.Unmapped ||
					got.stats.Locations != want.stats.Locations {
					t.Errorf("%s: stats %+v != scalar %+v", label, got.stats, want.stats)
				}
				if got.cells != want.cells {
					t.Errorf("%s: phmm.cells %d != scalar %d", label, got.cells, want.cells)
				}
				if !bytes.Equal(got.state, want.state) {
					t.Errorf("%s: accumulator state diverges from scalar", label)
				}
				full := reg.Counter("phmm.batch.lanes.full").Value()
				partial := reg.Counter("phmm.batch.lanes.partial").Value()
				scalar := reg.Counter("phmm.scalar.alignments").Value()
				if n := reg.Counter("map.alignments").Value(); full+partial+scalar != n {
					t.Errorf("%s: lanes %d full + %d partial + %d scalar != %d alignments",
						label, full, partial, scalar, n)
				}
				if batch >= 64 && full < 2*(partial+scalar) {
					t.Errorf("%s: only %d of %d alignments in full-width groups",
						label, full, full+partial+scalar)
				}
			}
		}
	}
}

// TestPhmmBatchConfig checks the knob's resolution rules: zero is the
// default width, negatives and one disable batching, ViterbiOnly is
// always scalar.
func TestPhmmBatchConfig(t *testing.T) {
	p := makePipeline(t, 5000, 1, 1, 23)
	for _, tc := range []struct {
		cfg       Config
		wantBatch bool
		wantWidth int
	}{
		{Config{}, true, DefaultPhmmBatch},
		{Config{PhmmBatch: 4}, true, 4},
		{Config{PhmmBatch: 1}, false, 0},
		{Config{PhmmBatch: -1}, false, 0},
		{Config{ViterbiOnly: true}, false, 0},
	} {
		eng, err := NewEngine(p.ref, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := eng.getMapper()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.batch != nil; got != tc.wantBatch {
			t.Errorf("cfg %+v: batch enabled = %v, want %v", tc.cfg, got, tc.wantBatch)
		}
		if tc.wantBatch && m.batchWidth != tc.wantWidth {
			t.Errorf("cfg %+v: width %d, want %d", tc.cfg, m.batchWidth, tc.wantWidth)
		}
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
		if _, err := eng.MapReads(reads, acc, 0); err != nil {
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
