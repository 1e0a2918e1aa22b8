package kmer

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gnumap/internal/dna"
)

// randSeq builds a random sequence with occasional ambiguous bases so
// the rolling-scan restart logic is exercised.
func randSeq(rng *rand.Rand, n int, nFrac float64) dna.Seq {
	seq := make(dna.Seq, n)
	for i := range seq {
		if rng.Float64() < nFrac {
			seq[i] = dna.N
		} else {
			seq[i] = dna.Code(rng.Intn(4))
		}
	}
	return seq
}

// revComp is the O(k) reverse complement of a packed k-mer.
func revComp(m dna.Kmer, k int) dna.Kmer {
	var rc dna.Kmer
	for i := 0; i < k; i++ {
		rc = rc<<2 | (3 - m&3)
		m >>= 2
	}
	return rc
}

// Lookup returns the stored position sample of the packed k-mer (at
// most MaxStore entries, ascending) and its true occurrence count. The
// sample is a copy: one held in a slot is not a slice of the index.
func (ix *LargeIndex) Lookup(m dna.Kmer) (hits []int32, total int) {
	s := []seedRef{{m: m, rc: revComp(m, ix.k)}}
	ix.resolve(s, nil)
	return slices.Clone(s[0].hits), int(s[0].total)
}

// TestLargeIndexMatchesDirect: at any k both representations index, the
// hashed index must return exactly the direct index's buckets and vote
// exactly the same candidates — the default-path bit-identity claim.
func TestLargeIndexMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seq := randSeq(rng, 4000, 0.01)
	for _, k := range []int{4, 10, 12} {
		direct, err := New(seq, k)
		if err != nil {
			t.Fatal(err)
		}
		large, err := NewLarge(seq, k)
		if err != nil {
			t.Fatal(err)
		}
		if large.SeqLen() != direct.SeqLen() || large.K() != direct.K() {
			t.Fatalf("k=%d: shape mismatch", k)
		}
		// Full bucket sweep for small k; for larger k compare every
		// k-mer present in the sequence plus random absent ones.
		var probe []dna.Kmer
		if k <= 8 {
			for b := 0; b < 1<<(2*k); b++ {
				probe = append(probe, dna.Kmer(b))
			}
		} else {
			forEachKmer(seq, k, func(m, _ dna.Kmer, _ int32) { probe = append(probe, m) })
			for i := 0; i < 20000; i++ {
				probe = append(probe, dna.Kmer(rng.Int63())&(1<<(2*k)-1))
			}
		}
		for _, m := range probe {
			want := direct.Lookup(m)
			got, total := large.Lookup(m)
			if total != len(want) || !equalI32(got, want) {
				t.Fatalf("k=%d kmer %v: large %v/%d != direct %v", k, m, got, total, want)
			}
		}
		for trial := 0; trial < 50; trial++ {
			start := rng.Intn(len(seq) - 80)
			read := seq[start : start+62].Clone()
			read[rng.Intn(62)] = dna.Code(rng.Intn(4))
			opt := CandidateOptions{MinVotes: 2, MaxBucket: 1024, MaxCandidates: 8, Slack: 2}
			dc := direct.Candidates(read, opt)
			lc := large.Candidates(read, opt)
			if !reflect.DeepEqual(dc, lc) {
				t.Fatalf("k=%d read@%d: candidates diverge\ndirect: %v\nlarge:  %v", k, start, dc, lc)
			}
		}
	}
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLargeIndexBigK: seeds beyond the direct ceiling still find a
// planted read, and New refuses where NewLarge works.
func TestLargeIndexBigK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seq := randSeq(rng, 20000, 0)
	for _, k := range []int{15, 20, 32} {
		if _, err := New(seq, k); err == nil {
			t.Fatalf("direct index accepted k=%d", k)
		}
		ix, err := NewLarge(seq, k)
		if err != nil {
			t.Fatal(err)
		}
		read := seq[7000:7062].Clone()
		cands := ix.Candidates(read, CandidateOptions{MinVotes: 2})
		if len(cands) == 0 || cands[0].Start != 7000 {
			t.Fatalf("k=%d: candidates = %v, want top at 7000", k, cands)
		}
	}
	if _, err := NewLarge(seq, 33); err == nil {
		t.Fatal("accepted k above dna.MaxKmerLen")
	}
}

// TestLargeIndexFrequencyCap: a hot seed's stored sample is truncated
// but its true count survives, so MaxBucket masking still fires and an
// unmasked query is bounded by the cap instead of the repeat size.
func TestLargeIndexFrequencyCap(t *testing.T) {
	seq := make(dna.Seq, 500) // poly-A
	const k = 16
	ix, err := NewLargeWith(seq, k, LargeConfig{MaxStore: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := dna.PackKmer(seq, 0, k)
	if !ok {
		t.Fatal("pack failed")
	}
	wantTotal := len(seq) - k + 1
	hits, got := ix.Lookup(m)
	if got != wantTotal {
		t.Fatalf("true count = %d, want %d", got, wantTotal)
	}
	if len(hits) != 4 || !equalI32(hits, []int32{0, 1, 2, 3}) {
		t.Fatalf("capped sample = %v, want first 4 positions", hits)
	}
	// Masking tests the true count, not the sample size.
	read := make(dna.Seq, 30)
	if got := ix.Candidates(read, CandidateOptions{MaxBucket: 100}); len(got) != 0 {
		t.Fatalf("repeat not masked through the cap: %v", got)
	}
	// Unmasked, the voter sees at most MaxStore positions per seed.
	var buf CandidateBuf
	ix.CandidatesInto(read, CandidateOptions{}, &buf)
	if buf.Stats.Hits > int64(4*(len(read)-k+1)) {
		t.Fatalf("cap leaked: %d hits voted", buf.Stats.Hits)
	}
	// Poly-A is one class (its reverse complement, poly-T, never occurs):
	// one record of two counts and the four stored positions.
	classes := 0
	for s := 1; s < len(ix.slots); s += 2 {
		if ix.slots[s] != 0 {
			classes++
		}
	}
	if classes != 1 || !slices.Equal(ix.recs, []int32{int32(wantTotal), 0, 0, 1, 2, 3}) {
		t.Fatalf("%d classes, records %v; want one capped class storing 4", classes, ix.recs)
	}
}

// TestLargeIndexParallelDeterminism: the layout must not depend on the
// build worker count.
func TestLargeIndexParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seq := randSeq(rng, 30000, 0.005)
	base, err := NewLargeWith(seq, 18, LargeConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 7, 16} {
		ix, err := NewLargeWith(seq, 18, LargeConfig{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.slotOff, ix.slotOff) ||
			!reflect.DeepEqual(base.slots, ix.slots) ||
			!reflect.DeepEqual(base.recs, ix.recs) {
			t.Fatalf("workers=%d: layout differs from serial build", w)
		}
	}
}

// TestForEachKmerRangeChunks: chunked scans must emit exactly the
// full-scan k-mer set, each with its reverse complement's pack,
// including around ambiguous-base restarts and chunk boundaries.
func TestForEachKmerRangeChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	seq := randSeq(rng, 997, 0.05)
	const k = 7
	type occ struct {
		m, rc dna.Kmer
		pos   int32
	}
	var want []occ
	for p := 0; p+k <= len(seq); p++ {
		if m, ok := dna.PackKmer(seq, p, k); ok {
			rc, _ := dna.PackKmer(seq[p:p+k].ReverseComplement(), 0, k)
			want = append(want, occ{m, rc, int32(p)})
		}
	}
	for _, chunks := range []int{1, 2, 5, 13} {
		var got []occ
		n := len(seq) - k + 1
		for c := 0; c < chunks; c++ {
			forEachKmerRange(seq, k, c*n/chunks, (c+1)*n/chunks, func(m, rc dna.Kmer, pos int32) {
				got = append(got, occ{m, rc, pos})
			})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d chunks: %d k-mers, want %d", chunks, len(got), len(want))
		}
	}
}

// TestSeedStats: the per-call stats must count seeds, masked seeds and
// voted positions.
func TestSeedStats(t *testing.T) {
	genome := dna.MustParseSeq("TTTTTTTTTTACGTACGGCCATTTTTTTTTT")
	read := dna.MustParseSeq("ACGTACGGCCA")
	ix, err := New(genome, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf CandidateBuf
	ix.CandidatesInto(read, CandidateOptions{}, &buf)
	if buf.Stats.Seeds != int64(len(read)-4+1) {
		t.Fatalf("seeds = %d, want %d", buf.Stats.Seeds, len(read)-4+1)
	}
	if buf.Stats.Hits == 0 {
		t.Fatal("no hits counted")
	}
	// A read carrying the hot poly-T seed: masking it must show up in
	// Masked and shrink Hits.
	read = dna.MustParseSeq("TTTTTTACGTACGGCCA")
	ix.CandidatesInto(read, CandidateOptions{}, &buf)
	unmaskedHits := buf.Stats.Hits
	ix.CandidatesInto(read, CandidateOptions{MaxBucket: 3}, &buf)
	if buf.Stats.Masked == 0 {
		t.Fatal("no masked seeds counted")
	}
	if buf.Stats.Hits >= unmaskedHits {
		t.Fatalf("masking did not reduce hits: %d >= %d", buf.Stats.Hits, unmaskedHits)
	}
}

// TestLargeSeedSelectivity is the reason the large-seed index exists,
// as counts: chance seed hits scale as L/4^s, so on a repeat-free
// genome s=20 must hand the diagonal voter >= 10x fewer index
// positions than the k=10 direct table, and propose >= 10x fewer
// candidate windows, for the same reads under the engine's options.
// 3.5 Mbp because a read's own locus answers ~45 of its k=10 seeds and
// ~32 of its s=20 seeds whatever L is; the chance hits (~1.4 per k=10
// seed per 1.5 Mbp) have to outnumber that tenfold.
func TestLargeSeedSelectivity(t *testing.T) {
	g := benchGenome(3_500_000)
	const nReads = 500
	reads := benchStrands(g, nReads, 11)
	opts := CandidateOptions{MaxCandidates: 8, MinVotes: 2, MaxBucket: 1024, Slack: 2}
	count := func(ix SeedIndex) (hits, cands int64) {
		var buf CandidateBuf
		for _, strands := range reads {
			for _, s := range strands {
				cands += int64(len(ix.CandidatesInto(s, opts, &buf)))
				hits += buf.Stats.Hits
			}
		}
		return hits, cands
	}
	direct, err := New(g, DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewLarge(g, 20)
	if err != nil {
		t.Fatal(err)
	}
	dHits, dCands := count(direct)
	lHits, lCands := count(large)
	t.Logf("%d reads: k=%d %d hits, %d candidates; s=20 %d hits, %d candidates", nReads, DefaultK, dHits, dCands, lHits, lCands)
	if lCands < nReads*9/10 {
		t.Errorf("s=20 proposed %d candidates for %d reads: it is selective by losing the true locus", lCands, nReads)
	}
	if dHits < 10*lHits {
		t.Errorf("seed hits only %.1fx lower (%d -> %d), need >= 10x", float64(dHits)/float64(lHits), dHits, lHits)
	}
	if dCands < 10*lCands {
		t.Errorf("candidates only %.1fx lower (%d -> %d), need >= 10x", float64(dCands)/float64(lCands), dCands, lCands)
	}
}
