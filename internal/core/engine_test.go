package core

import (
	"math"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/lrt"
	"gnumap/internal/phmm"
	"gnumap/internal/simulate"
	"gnumap/internal/snp"
)

// simPipeline builds a simulated dataset, runs the engine, and returns
// everything needed for assertions.
type pipeline struct {
	ref   *genome.Reference
	cat   []simulate.SNP
	reads []*fastq.Read
}

func makePipeline(t *testing.T, length, nSNPs int, coverage float64, seed int64) *pipeline {
	t.Helper()
	g, err := simulate.Genome(simulate.GenomeConfig{Length: length, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := simulate.Catalog(g, simulate.CatalogConfig{Count: nSNPs, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	ind, err := simulate.Mutate(g, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := simulate.Reads(ind, simulate.ReadConfig{Length: 62, Coverage: coverage, Seed: seed + 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := genome.NewSingleContig("chrE", g)
	if err != nil {
		t.Fatal(err)
	}
	return &pipeline{ref: ref, cat: cat, reads: reads}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, Config{}); err == nil {
		t.Error("nil reference accepted")
	}
	ref, _ := genome.NewSingleContig("x", dna.MustParseSeq("ACGTACGTACGTACGT"))
	bad := Config{}
	bad.PHMM.TMM = 0.5 // non-zero but invalid parameter set
	if _, err := NewEngine(ref, bad); err == nil {
		t.Error("invalid PHMM params accepted")
	}
}

func TestMapReadsNilAccumulator(t *testing.T) {
	p := makePipeline(t, 5000, 1, 1, 7)
	eng, err := NewEngine(p.ref, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.MapReads(p.reads, nil); err == nil {
		t.Error("nil accumulator accepted")
	}
}

func TestEndToEndSNPRecovery(t *testing.T) {
	p := makePipeline(t, 60000, 6, 12, 11)
	eng, err := NewEngine(p.ref, Config{})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.MapReads(p.reads, acc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mapped < int64(len(p.reads)*9/10) {
		t.Fatalf("only %d/%d reads mapped", st.Mapped, len(p.reads))
	}
	calls, _, err := snp.CallAll(p.ref, acc, snp.Config{Ploidy: lrt.Monoploid})
	if err != nil {
		t.Fatal(err)
	}
	m := snp.Evaluate(calls, p.cat)
	if m.TP < len(p.cat)-1 {
		t.Errorf("recovered %d/%d SNPs (FP=%d)", m.TP, len(p.cat), m.FP)
	}
	if m.Precision() < 0.7 {
		t.Errorf("precision = %v (TP=%d FP=%d)", m.Precision(), m.TP, m.FP)
	}
}

func TestMalformedReadsAreUnmappedNotFatal(t *testing.T) {
	p := makePipeline(t, 5000, 1, 1, 13)
	eng, err := NewEngine(p.ref, Config{})
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := genome.New(genome.Norm, p.ref.Len())
	bad := []*fastq.Read{
		{Name: "empty"},
		{Name: "mismatched", Seq: dna.MustParseSeq("ACGT"), Qual: []uint8{30}},
	}
	st, err := eng.MapReads(bad, acc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Unmapped != 2 || st.Mapped != 0 {
		t.Errorf("stats = %+v, want 2 unmapped", st)
	}
}

func TestMultiMappedReadContributesToBothCopies(t *testing.T) {
	// Two identical 300-bp blocks: a read from one block must spread
	// its contribution across both locations (the paper's marginal
	// multi-mapping), unlike BestHitOnly.
	g, err := simulate.Genome(simulate.GenomeConfig{Length: 10000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	copy(g[6000:6300], g[2000:2300])
	ref, err := genome.NewSingleContig("dup", g)
	if err != nil {
		t.Fatal(err)
	}
	qual := make([]uint8, 62)
	for i := range qual {
		qual[i] = 30
	}
	rd := &fastq.Read{Name: "dup", Seq: g[2100 : 2100+62].Clone(), Qual: qual}

	eng, err := NewEngine(ref, Config{})
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := genome.New(genome.Norm, ref.Len())
	st, err := eng.MapReads([]*fastq.Read{rd}, acc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mapped != 1 || st.Locations < 2 {
		t.Fatalf("stats = %+v, want 1 read at >=2 locations", st)
	}
	fz := view(t, acc)
	t1, t2 := fz.Total(2130), fz.Total(6130)
	if t1 < 0.3 || t2 < 0.3 {
		t.Errorf("copy totals %v / %v, want ~0.5 each", t1, t2)
	}
	if math.Abs(t1-t2) > 0.2 {
		t.Errorf("weights unbalanced across identical copies: %v vs %v", t1, t2)
	}

	// BestHitOnly ablation: all mass on a single copy.
	engBest, err := NewEngine(ref, Config{BestHitOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	accBest, _ := genome.New(genome.Norm, ref.Len())
	if _, err := engBest.MapReads([]*fastq.Read{rd}, accBest); err != nil {
		t.Fatal(err)
	}
	fz = view(t, accBest)
	b1, b2 := fz.Total(2130), fz.Total(6130)
	if math.Min(b1, b2) > 0.01 {
		t.Errorf("BestHitOnly spread mass: %v / %v", b1, b2)
	}
	if math.Max(b1, b2) < 0.9 {
		t.Errorf("BestHitOnly lost mass: %v / %v", b1, b2)
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	p := makePipeline(t, 30000, 3, 8, 19)
	var results []snp.Metrics
	for _, workers := range []int{1, 4} {
		eng, err := NewEngine(p.ref, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		acc, _ := genome.New(genome.Norm, p.ref.Len())
		if _, err := eng.MapReads(p.reads, acc); err != nil {
			t.Fatal(err)
		}
		calls, _, err := snp.CallAll(p.ref, acc, snp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, snp.Evaluate(calls, p.cat))
	}
	if results[0] != results[1] {
		t.Errorf("worker counts disagree: %+v vs %+v", results[0], results[1])
	}
}

func TestViterbiOnlyAblationStillRecovers(t *testing.T) {
	p := makePipeline(t, 30000, 3, 12, 23)
	eng, err := NewEngine(p.ref, Config{ViterbiOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := genome.New(genome.Norm, p.ref.Len())
	st, err := eng.MapReads(p.reads, acc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mapped == 0 {
		t.Fatal("viterbi-only mapped nothing")
	}
	calls, _, err := snp.CallAll(p.ref, acc, snp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := snp.Evaluate(calls, p.cat)
	if m.TP < 2 {
		t.Errorf("viterbi-only recovered %d/%d", m.TP, len(p.cat))
	}
}

func TestGlobalModeWorks(t *testing.T) {
	p := makePipeline(t, 20000, 2, 12, 29)
	eng, err := NewEngine(p.ref, Config{AlignMode: phmm.Global})
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := genome.New(genome.Norm, p.ref.Len())
	st, err := eng.MapReads(p.reads, acc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mapped < int64(len(p.reads)/2) {
		t.Fatalf("global mode mapped only %d/%d", st.Mapped, len(p.reads))
	}
	calls, _, err := snp.CallAll(p.ref, acc, snp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := snp.Evaluate(calls, p.cat)
	if m.TP < 1 {
		t.Errorf("global mode recovered %d/%d", m.TP, len(p.cat))
	}
}

func TestDiploidHetRecovery(t *testing.T) {
	g, err := simulate.Genome(simulate.GenomeConfig{Length: 40000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := simulate.Catalog(g, simulate.CatalogConfig{Count: 4, HetFraction: 1, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	ind, err := simulate.Mutate(g, cat, true)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := simulate.Reads(ind, simulate.ReadConfig{Length: 62, Coverage: 25, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := genome.NewSingleContig("dip", g)
	eng, err := NewEngine(ref, Config{})
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := genome.New(genome.Norm, ref.Len())
	if _, err := eng.MapReads(reads, acc); err != nil {
		t.Fatal(err)
	}
	calls, _, err := snp.CallAll(ref, acc, snp.Config{Ploidy: lrt.Diploid})
	if err != nil {
		t.Fatal(err)
	}
	m := snp.Evaluate(calls, cat)
	if m.TP < 3 {
		t.Errorf("diploid recovery %d/%d (FP=%d)", m.TP, len(cat), m.FP)
	}
	hets := 0
	for _, c := range calls {
		if c.Het {
			hets++
		}
	}
	if hets < 3 {
		t.Errorf("only %d het calls for %d het sites", hets, len(cat))
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Mapped: 1, Unmapped: 2, Locations: 3}
	a.Add(Stats{Mapped: 10, Unmapped: 20, Locations: 30})
	if a.Mapped != 11 || a.Unmapped != 22 || a.Locations != 33 {
		t.Errorf("add = %+v", a)
	}
}

func TestCollectTrainingPairs(t *testing.T) {
	p := makePipeline(t, 30000, 2, 8, 83)
	eng, err := NewEngine(p.ref, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := eng.CollectTrainingPairs(p.reads[:300], 100, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("no training pairs from confidently mapped reads")
	}
	if len(pairs) > 100 {
		t.Errorf("max not enforced: %d pairs", len(pairs))
	}
	for i, pr := range pairs[:5] {
		if pr.X == nil || len(pr.Y) < pr.X.Len() {
			t.Errorf("pair %d malformed: window %d < read %d", i, len(pr.Y), pr.X.Len())
		}
	}
	if _, err := eng.CollectTrainingPairs(p.reads[:10], 0, 0.3); err == nil {
		t.Error("minWeight below 0.5 accepted")
	}
	// A duplicated-region read never reaches weight 0.99 and yields no
	// pair; garbage reads likewise.
	junk := make(dna.Seq, 62)
	qual := make([]uint8, 62)
	for i := range junk {
		junk[i] = dna.Code(i % 4)
		qual[i] = 30
	}
	pairs, err = eng.CollectTrainingPairs([]*fastq.Read{{Name: "j", Seq: junk, Qual: qual}}, 0, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Errorf("garbage read produced %d training pairs", len(pairs))
	}
}
