package kmer

import (
	"math/rand"
	"testing"

	"gnumap/internal/dna"
)

func TestNewRejectsBadK(t *testing.T) {
	s := dna.MustParseSeq("ACGT")
	for _, k := range []int{0, -1, MaxDirectK + 1} {
		if _, err := New(s, k); err == nil {
			t.Errorf("k=%d: expected error", k)
		}
	}
}

func TestLookupExactness(t *testing.T) {
	// Brute-force comparison on a random sequence.
	rng := rand.New(rand.NewSource(42))
	seq := make(dna.Seq, 500)
	for i := range seq {
		seq[i] = dna.Code(rng.Intn(4))
	}
	const k = 4
	ix, err := New(seq, k)
	if err != nil {
		t.Fatal(err)
	}
	// Build expectations by brute force.
	want := make(map[dna.Kmer][]int32)
	for off := 0; off+k <= len(seq); off++ {
		m, ok := dna.PackKmer(seq, off, k)
		if !ok {
			continue
		}
		want[m] = append(want[m], int32(off))
	}
	for m, positions := range want {
		got := ix.Lookup(m)
		if len(got) != len(positions) {
			t.Fatalf("kmer %v: got %d hits, want %d", m, len(got), len(positions))
		}
		for i := range got {
			if got[i] != positions[i] {
				t.Fatalf("kmer %v hit %d: got %d, want %d", m, i, got[i], positions[i])
			}
		}
	}
	// Total position count must equal the number of windows.
	total := 0
	for _, p := range want {
		total += len(p)
	}
	if len(ix.positions) != total {
		t.Errorf("index holds %d positions, want %d", len(ix.positions), total)
	}
}

func TestAmbiguousBasesNotIndexed(t *testing.T) {
	seq := dna.MustParseSeq("ACGTNACGT")
	ix, err := New(seq, 3)
	if err != nil {
		t.Fatal(err)
	}
	// "GTN", "TNA", "NAC" must be absent; "ACG" occurs at 0 and 5.
	m, _ := dna.PackKmer(dna.MustParseSeq("ACG"), 0, 3)
	hits := ix.Lookup(m)
	if len(hits) != 2 || hits[0] != 0 || hits[1] != 5 {
		t.Errorf("ACG hits = %v, want [0 5]", hits)
	}
	count := 0
	for b := 0; b < 1<<6; b++ {
		count += len(ix.Lookup(dna.Kmer(b)))
	}
	if count != 4 { // ACG, CGT, ACG, CGT
		t.Errorf("total indexed k-mers = %d, want 4", count)
	}
}

func TestShortSequence(t *testing.T) {
	ix, err := New(dna.MustParseSeq("AC"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.positions) != 0 {
		t.Error("sequence shorter than k must index nothing")
	}
	if got := ix.Candidates(dna.MustParseSeq("ACGTACGT"), CandidateOptions{}); len(got) != 0 {
		t.Errorf("candidates on empty index = %v", got)
	}
}

func TestCandidatesExactMatch(t *testing.T) {
	genome := dna.MustParseSeq("TTTTTTTTTTACGTACGGCCATTTTTTTTTT")
	read := dna.MustParseSeq("ACGTACGGCCA")
	ix, err := New(genome, 4)
	if err != nil {
		t.Fatal(err)
	}
	cands := ix.Candidates(read, CandidateOptions{})
	if len(cands) == 0 {
		t.Fatal("no candidates for exact substring")
	}
	if cands[0].Start != 10 {
		t.Errorf("top candidate start = %d, want 10", cands[0].Start)
	}
	// Every k-mer of the read votes for diagonal 10.
	if int(cands[0].Votes) != len(read)-4+1 {
		t.Errorf("votes = %d, want %d", cands[0].Votes, len(read)-4+1)
	}
}

func TestCandidatesWithMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	genome := make(dna.Seq, 2000)
	for i := range genome {
		genome[i] = dna.Code(rng.Intn(4))
	}
	read := genome[700:762].Clone()
	read[30] = dna.Code((int(read[30]) + 1) % 4) // one SNP mid-read
	ix, err := New(genome, DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	cands := ix.Candidates(read, CandidateOptions{MinVotes: 2})
	if len(cands) == 0 || cands[0].Start != 700 {
		t.Fatalf("candidates = %v, want top at 700", cands)
	}
}

func TestCandidatesRepeatMasking(t *testing.T) {
	// Genome of all A's: the poly-A k-mer occurs everywhere.
	genome := make(dna.Seq, 300) // all A (zero value)
	read := make(dna.Seq, 20)
	ix, err := New(genome, 5)
	if err != nil {
		t.Fatal(err)
	}
	unmasked := ix.Candidates(read, CandidateOptions{})
	if len(unmasked) == 0 {
		t.Fatal("expected candidates without masking")
	}
	masked := ix.Candidates(read, CandidateOptions{MaxBucket: 10})
	if len(masked) != 0 {
		t.Errorf("repeat masking failed: %d candidates", len(masked))
	}
}

func TestCandidatesCapAndOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	genome := make(dna.Seq, 5000)
	for i := range genome {
		genome[i] = dna.Code(rng.Intn(4))
	}
	// Plant the read at two locations, one with a mismatch so votes differ.
	read := genome[1000:1040].Clone()
	copy(genome[3000:3040], read)
	genome[3005] = dna.Code((int(genome[3005]) + 1) % 4)
	ix, err := New(genome, DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	cands := ix.Candidates(read, CandidateOptions{MinVotes: 2})
	if len(cands) < 2 {
		t.Fatalf("want >=2 candidates, got %v", cands)
	}
	if cands[0].Start != 1000 {
		t.Errorf("best candidate = %d, want 1000 (perfect copy)", cands[0].Start)
	}
	if cands[0].Votes < cands[1].Votes {
		t.Error("candidates not sorted by votes")
	}
	capped := ix.Candidates(read, CandidateOptions{MinVotes: 2, MaxCandidates: 1})
	if len(capped) != 1 || capped[0].Start != 1000 {
		t.Errorf("cap kept %v, want only 1000", capped)
	}
}

func TestNegativeDiagonalClamped(t *testing.T) {
	// Read hangs off the start of the genome: diagonal would be negative.
	genome := dna.MustParseSeq("ACGGCCATTAACGGTT")
	read := append(dna.MustParseSeq("TTTT"), genome[:8]...)
	ix, err := New(genome, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ix.Candidates(read, CandidateOptions{}) {
		if c.Start < 0 {
			t.Errorf("negative candidate start %d", c.Start)
		}
	}
}

// TestNegativeDiagonalVotesNotPooled: distinct negative implied starts
// must NOT pool their votes into one inflated position-0 candidate.
// Position 0 gets the *best* negative/zero diagonal's votes, not the sum.
func TestNegativeDiagonalVotesNotPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	genome := make(dna.Seq, 40)
	for i := range genome {
		genome[i] = dna.Code(rng.Intn(4))
	}
	const k = 4
	ix, err := New(genome, k)
	if err != nil {
		t.Fatal(err)
	}
	// read[8:16] matches genome[1:9]  -> implied start 1-8  = -7
	// read[16:24] matches genome[12:20] -> implied start 12-16 = -4
	// The N prefix keeps those k-mers from voting anywhere else.
	read := dna.MustParseSeq("NNNNNNNN")
	read = append(read, genome[1:9].Clone()...)
	read = append(read, genome[12:20].Clone()...)

	// Independent oracle: vote on true diagonals with a plain map; the
	// position-0 candidate must carry the best non-positive diagonal's
	// votes, not their sum.
	votes := map[int32]int32{}
	for off := 0; off+k <= len(read); off++ {
		m, ok := dna.PackKmer(read, off, k)
		if !ok {
			continue
		}
		for _, p := range ix.Lookup(m) {
			votes[p-int32(off)]++
		}
	}
	var wantZero, sumNonPos int32
	negDiags := 0
	for d, v := range votes {
		if d <= 0 {
			sumNonPos += v
			if d < 0 {
				negDiags++
			}
			if v > wantZero {
				wantZero = v
			}
		}
	}
	if negDiags < 2 {
		t.Fatalf("construction broken: %d negative diagonals voted, want >=2", negDiags)
	}
	if sumNonPos <= wantZero {
		t.Fatalf("construction broken: pooling would be invisible (sum %d, max %d)", sumNonPos, wantZero)
	}

	cands := ix.Candidates(read, CandidateOptions{})
	zeros := 0
	for _, c := range cands {
		if c.Start == 0 {
			zeros++
			if c.Votes != wantZero {
				t.Errorf("position-0 votes = %d, want max %d (pooled sum would be %d)",
					c.Votes, wantZero, sumNonPos)
			}
		}
	}
	if zeros != 1 {
		t.Errorf("%d candidates at position 0, want exactly 1", zeros)
	}
}

func TestMemoryBytesPositive(t *testing.T) {
	ix, err := New(dna.MustParseSeq("ACGTACGTACGT"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if ix.MemoryBytes() <= 0 {
		t.Error("MemoryBytes must be positive")
	}
	if ix.K() != 4 || ix.SeqLen() != 12 {
		t.Errorf("K/SeqLen wrong: %d/%d", ix.K(), ix.SeqLen())
	}
}

// TestCandidatesIntoMatchesCandidates: the buffered query must return
// the same candidates as the allocating one, and repeated calls on one
// CandidateBuf must not allocate or carry state across reads.
func TestCandidatesIntoMatchesCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	seq := make(dna.Seq, 4000)
	for i := range seq {
		seq[i] = dna.Code(rng.Intn(4))
	}
	ix, err := New(seq, 6)
	if err != nil {
		t.Fatal(err)
	}
	opt := CandidateOptions{MaxCandidates: 8, MinVotes: 2, Slack: 2}
	var buf CandidateBuf
	reads := make([]dna.Seq, 20)
	for r := range reads {
		start := rng.Intn(len(seq) - 40)
		reads[r] = seq[start : start+40]
	}
	for r, read := range reads {
		want := ix.Candidates(read, opt)
		got := ix.CandidatesInto(read, opt, &buf)
		if len(got) != len(want) {
			t.Fatalf("read %d: %d candidates via buf, %d fresh", r, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("read %d cand %d: %+v vs %+v", r, i, got[i], want[i])
			}
		}
	}
	// Steady state: the warm buffer must not allocate.
	read := reads[0]
	avg := testing.AllocsPerRun(20, func() {
		ix.CandidatesInto(read, opt, &buf)
	})
	if avg > 0 {
		t.Errorf("warm CandidatesInto allocates %.1f/op, want 0", avg)
	}
}
