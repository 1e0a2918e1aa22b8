package snp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/genome"
	"gnumap/internal/lrt"
	"gnumap/internal/simulate"
)

// fixture builds a tiny reference plus an accumulator with hand-planted
// evidence: a hom SNP at 10 (ref A, reads say C), a confirmed ref base
// at 20, a het site at 30 (ref G, reads split G/T), thin coverage at 40.
func fixture(t *testing.T) (*genome.Reference, genome.Accumulator) {
	t.Helper()
	seq := make(dna.Seq, 50) // all A by zero value
	seq[30] = dna.G
	ref, err := genome.NewSingleContig("chrT", seq)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := genome.New(genome.Norm, 50)
	if err != nil {
		t.Fatal(err)
	}
	add := func(pos int, v genome.Vec, times int) {
		for i := 0; i < times; i++ {
			acc.AddRange(pos, []genome.Vec{v}, 1)
		}
	}
	add(10, genome.Vec{0.02, 0.95, 0.02, 0.01, 0}, 15) // C evidence
	add(20, genome.Vec{0.97, 0.01, 0.01, 0.01, 0}, 15) // A evidence (ref)
	add(30, genome.Vec{0, 0, 0.98, 0.02, 0}, 8)        // G (ref allele)
	add(30, genome.Vec{0, 0, 0.02, 0.98, 0}, 8)        // T (alt allele)
	add(40, genome.Vec{0, 0.9, 0.1, 0, 0}, 1)          // below MinDepth
	return ref, acc
}

func TestCallAllMonoploid(t *testing.T) {
	ref, acc := fixture(t)
	calls, st, err := CallAll(ref, acc, Config{Ploidy: lrt.Monoploid})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tested != 3 {
		t.Errorf("Tested = %d, want 3 (pos 40 below MinDepth)", st.Tested)
	}
	// Position 10 must be called C; position 20 is significant but
	// matches the reference; position 30 is a 50/50 split, weak under
	// the monoploid alternative but the top base T or G still beats
	// uniform background strongly at depth 16.
	byPos := map[int]Call{}
	for _, c := range calls {
		byPos[c.GlobalPos] = c
	}
	c10, ok := byPos[10]
	if !ok {
		t.Fatal("no call at 10")
	}
	if c10.Allele != dna.ChC || c10.Ref != dna.A || c10.Het {
		t.Errorf("call at 10 = %+v", c10)
	}
	if c10.Contig != "chrT" || c10.Pos != 10 {
		t.Errorf("coordinates wrong: %+v", c10)
	}
	if _, ok := byPos[20]; ok {
		t.Error("reference-matching position 20 called as SNP")
	}
	if _, ok := byPos[40]; ok {
		t.Error("thin position 40 called")
	}
}

func TestCallAllDiploidHet(t *testing.T) {
	ref, acc := fixture(t)
	calls, _, err := CallAll(ref, acc, Config{Ploidy: lrt.Diploid})
	if err != nil {
		t.Fatal(err)
	}
	var c30 *Call
	for i := range calls {
		if calls[i].GlobalPos == 30 {
			c30 = &calls[i]
		}
	}
	if c30 == nil {
		t.Fatal("het site at 30 not called")
	}
	if !c30.Het {
		t.Errorf("call at 30 not heterozygous: %+v", c30)
	}
	alt := c30.AltAllele()
	if alt != dna.ChT {
		t.Errorf("alt allele = %v, want T", alt)
	}
}

func TestCallRangeOffsets(t *testing.T) {
	ref, acc := fixture(t)
	// Use a shifted accumulator covering only [5, 35): global pos 10
	// maps to accumulator index 5.
	sub, err := genome.New(genome.Norm, 30)
	if err != nil {
		t.Fatal(err)
	}
	fz := view(t, acc)
	for i := 0; i < 30; i++ {
		sub.AddRange(i, []genome.Vec{fz.Vector(5 + i)}, 1)
	}
	want, wantSt := serialCall(t, ref, sub, 5, Config{})
	for workers := 1; workers <= 4; workers++ {
		ic, err := NewIncrementalCaller(ref, sub, 5, Config{CallWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		calls, st, err := ic.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(calls, want) || st != wantSt {
			t.Fatalf("workers=%d: offset calls diverge from serial: %+v vs %+v", workers, calls, want)
		}
	}
	found := false
	for _, c := range want {
		if c.GlobalPos == 10 && c.Allele == dna.ChC {
			found = true
		}
	}
	if !found {
		t.Errorf("offset calling missed the SNP: %+v", want)
	}
}

func TestCallValidation(t *testing.T) {
	ref, acc := fixture(t)
	if _, _, err := CallAll(nil, acc, Config{}); err == nil {
		t.Error("nil ref accepted")
	}
	if _, _, err := CallAll(ref, nil, Config{}); err == nil {
		t.Error("nil accumulator accepted")
	}
}

func TestFDRMode(t *testing.T) {
	ref, acc := fixture(t)
	calls, _, err := CallAll(ref, acc, Config{UseFDR: true, Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range calls {
		if c.GlobalPos == 10 {
			found = true
		}
	}
	if !found {
		t.Error("FDR mode missed the strong SNP at 10")
	}
}

func TestEvaluate(t *testing.T) {
	calls := []Call{
		{GlobalPos: 10, Ref: dna.A, Allele: dna.ChC, Allele2: dna.ChC},            // TP
		{GlobalPos: 20, Ref: dna.A, Allele: dna.ChG, Allele2: dna.ChG},            // FP (not in truth)
		{GlobalPos: 30, Ref: dna.G, Allele: dna.ChT, Allele2: dna.ChT},            // wrong allele
		{GlobalPos: 40, Ref: dna.G, Allele: dna.ChG, Allele2: dna.ChA, Het: true}, // TP via Allele2
	}
	truth := []simulate.SNP{
		{Pos: 10, Ref: dna.A, Alt: dna.C},
		{Pos: 30, Ref: dna.G, Alt: dna.A},
		{Pos: 40, Ref: dna.G, Alt: dna.A, Het: true},
		{Pos: 99, Ref: dna.A, Alt: dna.T}, // missed -> FN
	}
	m := Evaluate(calls, truth)
	if m.TP != 2 || m.FP != 2 || m.FN != 2 || m.WrongAllele != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.Precision() != 0.5 {
		t.Errorf("precision = %v", m.Precision())
	}
	if m.Sensitivity() != 0.5 {
		t.Errorf("sensitivity = %v", m.Sensitivity())
	}
}

func TestEvaluateDuplicateCallsCountOnce(t *testing.T) {
	calls := []Call{
		{GlobalPos: 10, Ref: dna.A, Allele: dna.ChC, Allele2: dna.ChC},
		{GlobalPos: 10, Ref: dna.A, Allele: dna.ChC, Allele2: dna.ChC},
	}
	truth := []simulate.SNP{{Pos: 10, Ref: dna.A, Alt: dna.C}}
	m := Evaluate(calls, truth)
	if m.TP != 1 || m.FN != 0 {
		t.Errorf("duplicate handling wrong: %+v", m)
	}
}

func TestMetricsZeroDivision(t *testing.T) {
	var m Metrics
	if m.Precision() != 0 || m.Sensitivity() != 0 {
		t.Error("zero metrics must not divide by zero")
	}
}

func TestWriteVCF(t *testing.T) {
	ref, acc := fixture(t)
	calls, _, err := CallAll(ref, acc, Config{Ploidy: lrt.Diploid})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVCF(&buf, calls, "gnumap-snp-test"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "##fileformat=VCFv4.2\n") {
		t.Error("missing VCF header")
	}
	if !strings.Contains(out, "#CHROM\tPOS\tID\tREF\tALT") {
		t.Error("missing column header")
	}
	// The hom SNP at global 10 -> VCF POS 11, REF A, ALT C.
	if !strings.Contains(out, "chrT\t11\t.\tA\tC\t") {
		t.Errorf("missing expected record in:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dataLines := 0
	for _, l := range lines {
		if !strings.HasPrefix(l, "#") {
			dataLines++
		}
	}
	if dataLines != len(calls) {
		t.Errorf("%d VCF records for %d calls", dataLines, len(calls))
	}
}

func TestIsSNPGapAndNRef(t *testing.T) {
	if isSNP(Call{Ref: dna.A, Allele: dna.ChGap, Allele2: dna.ChGap}) {
		t.Error("gap-dominant position called as SNP")
	}
	if isSNP(Call{Ref: dna.N, Allele: dna.ChC, Allele2: dna.ChC}) {
		t.Error("N-reference position called as SNP")
	}
	if !isSNP(Call{Ref: dna.A, Allele: dna.ChA, Allele2: dna.ChT, Het: true}) {
		t.Error("ref/alt het not called as SNP")
	}
	if isSNP(Call{Ref: dna.A, Allele: dna.ChA, Allele2: dna.ChGap, Het: true}) {
		t.Error("ref/gap het called as SNP")
	}
}

func TestWritePileup(t *testing.T) {
	ref, acc := fixture(t)
	var buf bytes.Buffer
	if err := WritePileup(&buf, ref, acc, 0, 0, ref.Len(), 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "#contig\tpos") {
		t.Errorf("header wrong: %q", lines[0])
	}
	// Fixture has mass >= 2 at positions 10, 20, 30 only.
	if len(lines) != 4 {
		t.Fatalf("%d data lines, want 3 (+header):\n%s", len(lines)-1, buf.String())
	}
	if !strings.HasPrefix(lines[1], "chrT\t11\tA\t") {
		t.Errorf("first pileup row wrong: %q", lines[1])
	}
	// The C channel at position 10 must dominate.
	f := strings.Split(lines[1], "\t")
	if f[5] <= f[4] { // C column > A column (string compare works for %.3f of these magnitudes)
		t.Errorf("C mass %s not dominant over A %s", f[5], f[4])
	}
	if err := WritePileup(&buf, nil, acc, 0, 0, 10, 1); err == nil {
		t.Error("nil ref accepted")
	}
}

func TestWritePileupRangeClamping(t *testing.T) {
	ref, acc := fixture(t)
	var buf bytes.Buffer
	// Deliberately out-of-bounds range must clamp, not panic.
	if err := WritePileup(&buf, ref, acc, 0, -100, 1<<20, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "chrT\t31\t") {
		t.Errorf("clamped pileup missing rows:\n%s", buf.String())
	}
}

func TestHetAlleleBalanceFilter(t *testing.T) {
	// Ref A with a 16:4 A/T split: the raw diploid LRT prefers het
	// (hom: 16·log(0.8) + 4·log(0.05) ≈ -15.6 < het: 20·log(0.5) ≈
	// -13.9), but the 20% minor fraction is error-pileup territory and
	// must be demoted to a (non-SNP) homozygous-reference call.
	seq := make(dna.Seq, 10) // all A
	ref, err := genome.NewSingleContig("bal", seq)
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := genome.New(genome.Norm, 10)
	for i := 0; i < 16; i++ {
		acc.AddRange(5, []genome.Vec{{1, 0, 0, 0, 0}}, 1)
	}
	for i := 0; i < 4; i++ {
		acc.AddRange(5, []genome.Vec{{0, 0, 0, 1, 0}}, 1)
	}
	calls, _, err := CallAll(ref, acc, Config{Ploidy: lrt.Diploid})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range calls {
		if c.GlobalPos == 5 {
			t.Errorf("skewed 16:4 position called: %+v", c)
		}
	}
	// Disabling the filter restores the raw behaviour.
	calls, _, err = CallAll(ref, acc, Config{Ploidy: lrt.Diploid, MinHetMinorFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range calls {
		if c.GlobalPos == 5 && c.Het {
			found = true
		}
	}
	if !found {
		t.Error("filter-disabled run did not call the skewed het")
	}
	// A balanced 10:10 het passes the filter.
	acc2, _ := genome.New(genome.Norm, 10)
	for i := 0; i < 10; i++ {
		acc2.AddRange(5, []genome.Vec{{1, 0, 0, 0, 0}}, 1)
		acc2.AddRange(5, []genome.Vec{{0, 0, 0, 1, 0}}, 1)
	}
	calls, _, err = CallAll(ref, acc2, Config{Ploidy: lrt.Diploid})
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, c := range calls {
		if c.GlobalPos == 5 && c.Het && c.AltAllele() == dna.ChT {
			found = true
		}
	}
	if !found {
		t.Errorf("balanced het not called: %+v", calls)
	}
}

// TestFinalizeCallsGlobalVsPerShardFDR pins the distributed-caller FDR
// semantics: one Benjamini–Hochberg pass over the full candidate family
// is NOT equivalent to a BH pass per genome shard. The construction is
// the minimal diverging case: shard A carries 79 overwhelming SNPs,
// shard B carries one borderline SNP (p = 0.04) among null positions.
// Globally the borderline candidate ranks 80/100, threshold
// α·80/100 = 0.04, so it is called; inside its own shard it ranks 1/21,
// threshold α/21 ≈ 0.0024, so a per-shard pass silently drops it.
func TestFinalizeCallsGlobalVsPerShardFDR(t *testing.T) {
	mk := func(pos int, p float64, alt bool) Candidate {
		c := Call{Contig: "chrT", Pos: pos, GlobalPos: pos, Ref: dna.A, PValue: p, Depth: 10}
		c.Allele, c.Allele2 = dna.ChA, dna.ChA
		if alt {
			c.Allele, c.Allele2 = dna.ChC, dna.ChC
		}
		return Candidate{Call: c, Second: c.Allele}
	}
	var shardA, shardB []Candidate
	for i := 0; i < 79; i++ {
		shardA = append(shardA, mk(i, 1e-10, true))
	}
	const borderline = 1000
	shardB = append(shardB, mk(borderline, 0.04, true))
	for i := 1; i <= 20; i++ {
		shardB = append(shardB, mk(borderline+i, 0.9, false))
	}
	cfg := Config{UseFDR: true} // Alpha defaults to 0.05

	global, _, err := FinalizeCalls(append(append([]Candidate{}, shardA...), shardB...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	callsA, _, err := FinalizeCalls(shardA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	callsB, _, err := FinalizeCalls(shardB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perShard := append(callsA, callsB...)

	if len(global) != 80 {
		t.Fatalf("global FDR pass called %d SNPs, want 80 (79 strong + 1 borderline)", len(global))
	}
	hasBorderline := func(calls []Call) bool {
		for _, c := range calls {
			if c.GlobalPos == borderline {
				return true
			}
		}
		return false
	}
	if !hasBorderline(global) {
		t.Errorf("global pass missing the borderline call at %d", borderline)
	}
	if hasBorderline(perShard) {
		t.Errorf("per-shard pass unexpectedly called position %d: shard-local BH should reject it", borderline)
	}
	if len(perShard) != 79 {
		t.Errorf("per-shard passes called %d SNPs, want 79", len(perShard))
	}

	// Every other decision is per candidate — the fixed cutoff, Alpha < 0
	// (with or without UseFDR), the het allele-balance demotion — so there
	// per-shard and global finalization agree, which is what lets every
	// placement gather candidates to one FinalizeCalls. Shard B gains two
	// strong hets with ref as the top allele: one balanced, one too skewed.
	het := func(pos int, minor float64) Candidate {
		c := mk(pos, 1e-10, false)
		c.Call.Het, c.Second, c.MinorFraction = true, dna.ChC, minor
		return c
	}
	shardB = append(shardB, het(2000, 0.4), het(2001, 0.1))
	for _, cfg := range []Config{{}, {Alpha: -1}, {Alpha: -1, UseFDR: true}, {MinHetMinorFraction: -1}} {
		global, _, err := FinalizeCalls(append(append([]Candidate{}, shardA...), shardB...), cfg)
		if err != nil {
			t.Fatal(err)
		}
		callsA, _, err := FinalizeCalls(shardA, cfg)
		if err != nil {
			t.Fatal(err)
		}
		callsB, _, err := FinalizeCalls(shardB, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if perShard := append(callsA, callsB...); !reflect.DeepEqual(global, perShard) {
			t.Errorf("%+v: per-shard finalization (%d calls) differs from global (%d)", cfg, len(perShard), len(global))
		}
		if len(global) < 80 {
			t.Errorf("%+v: %d calls, want the 79 strong SNPs and the balanced het at least", cfg, len(global))
		}
	}
}
