package kmer

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"gnumap/internal/dna"
)

// The oracle is the voting loop as it stood before seeds were resolved
// as a group: one O(k) pack, one lookup and one probe chain per seed,
// a three-array vote table grown mid-read, a walk over every live slot
// and a full sort. Its lookups read no index at all: they come from a
// scan of the reference itself. candidatesInto must return its
// candidates (order included) and its SeedStats exactly. Under a Stride
// the oracle looks up only the read offsets off with off ≡ phase (mod
// Stride): phase 0 for a read's own sample, n-k for the mirrors of a
// both-strand query's reverse strand.

// forEachKmer calls fn for every packable k-mer window in seq, with its
// reverse complement's pack, using rolling packs that restart after
// ambiguous bases (the closure roll packSeeds spells out).
func forEachKmer(seq dna.Seq, k int, fn func(m, rc dna.Kmer, pos int32)) {
	forEachKmerRange(seq, k, 0, len(seq), fn)
}

// scanOracle answers each seed from the reference sequence: every
// window whose O(k) pack is the seed, ascending, of which an index
// capped at maxStore keeps the first maxStore.
type scanOracle struct {
	k, maxStore int
	occ         map[dna.Kmer][]int32
}

func newScanOracle(seq dna.Seq, k, maxStore int) *scanOracle {
	o := &scanOracle{k: k, maxStore: maxStore, occ: map[dna.Kmer][]int32{}}
	for p := 0; p+k <= len(seq); p++ {
		if m, ok := dna.PackKmer(seq, p, k); ok {
			o.occ[m] = append(o.occ[m], int32(p))
		}
	}
	return o
}

func (o *scanOracle) K() int { return o.k }

func (o *scanOracle) lookupTotal(m dna.Kmer) ([]int32, int) {
	all := o.occ[m]
	return all[:min(len(all), o.maxStore)], len(all)
}

type oracleBuf struct {
	keys  []int32
	vals  []int32
	epoch []uint32
	used  []int32
	cur   uint32
}

func (b *oracleBuf) beginRead() {
	if len(b.keys) == 0 {
		b.keys = make([]int32, 64)
		b.vals = make([]int32, 64)
		b.epoch = make([]uint32, 64)
	}
	b.used = b.used[:0]
	b.cur++
	if b.cur == 0 {
		clear(b.epoch)
		b.cur = 1
	}
}

func (b *oracleBuf) vote(key int32) {
	mask := uint32(len(b.keys) - 1)
	for i := uint32(key) * 2654435761 & mask; ; i = (i + 1) & mask {
		if b.epoch[i] != b.cur {
			b.epoch[i] = b.cur
			b.keys[i] = key
			b.vals[i] = 1
			b.used = append(b.used, int32(i))
			if 4*len(b.used) >= 3*len(b.keys) {
				b.growTable()
			}
			return
		}
		if b.keys[i] == key {
			b.vals[i]++
			return
		}
	}
}

func (b *oracleBuf) growTable() {
	oldKeys, oldVals, oldUsed := b.keys, b.vals, b.used
	n := 2 * len(oldKeys)
	b.keys = make([]int32, n)
	b.vals = make([]int32, n)
	b.epoch = make([]uint32, n)
	b.used = make([]int32, 0, len(oldUsed)*2)
	b.cur = 1
	mask := uint32(n - 1)
	for _, slot := range oldUsed {
		key, val := oldKeys[slot], oldVals[slot]
		for i := uint32(key) * 2654435761 & mask; ; i = (i + 1) & mask {
			if b.epoch[i] != b.cur {
				b.epoch[i] = b.cur
				b.keys[i] = key
				b.vals[i] = val
				b.used = append(b.used, int32(i))
				break
			}
		}
	}
}

func oracleCandidates(ix *scanOracle, read dna.Seq, opt CandidateOptions, phase int, buf *oracleBuf) ([]Candidate, SeedStats) {
	minVotes := opt.MinVotes
	if minVotes <= 0 {
		minVotes = 1
	}
	k := ix.K()
	buf.beginRead()
	var stats SeedStats
	for off := 0; off+k <= len(read); off++ {
		m, ok := dna.PackKmer(read, off, k)
		if !ok || (off-phase)%max(opt.Stride, 1) != 0 {
			continue
		}
		stats.Seeds++
		hits, total := ix.lookupTotal(m)
		if opt.MaxBucket > 0 && total > opt.MaxBucket {
			stats.Masked++
			continue
		}
		stats.Hits += int64(len(hits))
		for _, p := range hits {
			start := p - int32(off)
			if opt.Slack > 0 {
				start -= start % int32(opt.Slack+1)
			}
			buf.vote(start)
		}
	}
	var cands []Candidate
	for _, slot := range buf.used {
		if v := buf.vals[slot]; int(v) >= minVotes {
			cands = append(cands, Candidate{Start: buf.keys[slot], Votes: v})
		}
	}
	slices.SortFunc(cands, func(a, b Candidate) int {
		if a.Votes != b.Votes {
			return int(b.Votes - a.Votes)
		}
		return int(a.Start - b.Start)
	})
	kept := cands[:0]
	zeroSeen := false
	for _, c := range cands {
		if c.Start <= 0 {
			if zeroSeen {
				continue
			}
			zeroSeen = true
			c.Start = 0
		}
		kept = append(kept, c)
	}
	cands = kept
	if opt.MaxCandidates > 0 && len(cands) > opt.MaxCandidates {
		cands = cands[:opt.MaxCandidates]
	}
	return cands, stats
}

// oracleGenome is repeat-rich: a random backbone with a dispersed
// repeat family (diverged copies), a tandem microsatellite, a poly-A
// run and a few ambiguous bases.
func oracleGenome(rng *rand.Rand) dna.Seq {
	seq := randSeq(rng, 9000, 0.002)
	unit := randSeq(rng, 150, 0)
	for _, at := range []int{3, 700, 1900, 2600, 4100, 5200, 6800, 8300} {
		copy(seq[at:], unit)
		for m := 0; m < 3; m++ {
			seq[at+rng.Intn(len(unit))] = dna.Code(rng.Intn(4))
		}
	}
	for i := 3300; i < 3700; i++ {
		seq[i] = dna.Code((i / 2) % 2 * 2) // AAGGAAGG...
	}
	for i := 6000; i < 6300; i++ {
		seq[i] = dna.A
	}
	return seq
}

// oracleReads covers the paths that differ between the two loops:
// sampled reads (with substitutions and an indel), ambiguous bases at
// the start, in the middle and at every k-th base, reads shorter than
// k, all-N reads, reads from the repeats, and reads hanging off the
// left edge so several negative diagonals collide at 0.
func oracleReads(rng *rand.Rand, seq dna.Seq, k int) []dna.Seq {
	var reads []dna.Seq
	sample := func(at, n int) dna.Seq { return seq[at : at+n].Clone() }
	for i := 0; i < 24; i++ {
		rd := sample(rng.Intn(len(seq)-70), 62)
		rd[rng.Intn(62)] = dna.Code(rng.Intn(4))
		if i%4 == 0 {
			cut := 20 + rng.Intn(20)
			rd = append(rd[:cut], rd[cut+1:]...)
		}
		reads = append(reads, rd, rd.ReverseComplement())
	}
	for _, at := range []int{10, 720, 3310, 3400, 6010, 6100, 8350} {
		reads = append(reads, sample(at, 62))
	}
	nStart := sample(1000, 62)
	nStart[0], nStart[1] = dna.N, dna.N
	nMid := sample(1200, 62)
	nMid[31] = dna.N
	nEvery := sample(1400, 62)
	for i := k - 1; i < len(nEvery); i += k {
		nEvery[i] = dna.N
	}
	nSparse := sample(1600, 62)
	for i := 0; i < len(nSparse); i += k + 3 {
		nSparse[i] = dna.N
	}
	allN := make(dna.Seq, 40)
	for i := range allN {
		allN[i] = dna.N
	}
	reads = append(reads, nStart, nMid, nEvery, nSparse, allN,
		sample(50, k-1), sample(50, k), sample(50, 1), dna.Seq{})
	// Off the left edge: a junk prefix, then genome[0:] and two shifted
	// copies of it, so diagonals -40, -20 and -7 (plus the repeat
	// family's own) all vote and collapse to one candidate at 0.
	edge := randSeq(rng, 7, 0)
	edge = append(edge, sample(0, 13)...)
	edge = append(edge, sample(0, 20)...)
	edge = append(edge, sample(0, 30)...)
	reads = append(reads, edge, append(randSeq(rng, 5, 0), sample(0, 57)...))
	return reads
}

// TestCandidatesIntoMatchesOracle: the group-resolved loop returns the
// scanning oracle's candidates and stats for both index kinds (the
// hashed one heap-built, frequency-capped, and mmap-loaded) over the whole option
// grid, every offset and sampled at strides 2, 3 and 4, through one
// warm buffer per index so state carried between reads would show.
func TestCandidatesIntoMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1701))
	seq := oracleGenome(rng)
	type kind struct {
		name string
		idx  SeedIndex
		old  *scanOracle
		k    int
	}
	var kinds []kind
	direct, err := New(seq, 8)
	if err != nil {
		t.Fatal(err)
	}
	kinds = append(kinds, kind{"direct-k8", direct, newScanOracle(seq, 8, math.MaxInt32), 8})
	for _, c := range []struct{ k, maxStore int }{{8, 0}, {16, 0}, {12, 4}} {
		large, err := NewLargeWith(seq, c.k, LargeConfig{MaxStore: c.maxStore})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("hash-k%d-store%d", c.k, c.maxStore)
		old := newScanOracle(seq, c.k, large.MaxStore())
		kinds = append(kinds, kind{name, large, old, c.k})
		digest := sha256.Sum256([]byte(name))
		path := filepath.Join(t.TempDir(), name+".gnix")
		if _, err := WriteIndexFile(path, large, digest, int64(len(seq))); err != nil {
			t.Fatal(err)
		}
		mapped, err := LoadIndexFile(path, LoadOptions{RefDigest: digest, RefLen: int64(len(seq))})
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		kinds = append(kinds, kind{name + "-mmap", mapped, old, c.k})
	}
	for _, kd := range kinds {
		t.Run(kd.name, func(t *testing.T) {
			reads := oracleReads(rand.New(rand.NewSource(7)), seq, kd.k)
			var buf CandidateBuf
			var old oracleBuf
			capped, masked, edge := 0, 0, 0
			for _, minVotes := range []int{0, 1, 2, 3} {
				for _, slack := range []int{0, 2, 4} {
					for _, maxCands := range []int{0, 1, 3, 8} {
						for _, maxBucket := range []int{0, 3} {
							for _, stride := range []int{0, 2, 3, 4} {
								opt := CandidateOptions{MinVotes: minVotes, Slack: slack, MaxCandidates: maxCands, MaxBucket: maxBucket, Stride: stride}
								for r, read := range reads {
									want, wantStats := oracleCandidates(kd.old, read, opt, 0, &old)
									got := kd.idx.CandidatesInto(read, opt, &buf)
									if !slices.Equal(got, want) || buf.Stats != wantStats {
										t.Fatalf("read %d %+v:\n got %v %+v\nwant %v %+v", r, opt, got, buf.Stats, want, wantStats)
									}
									if maxCands > 0 && len(want) == maxCands {
										capped++
									}
									if wantStats.Masked > 0 {
										masked++
									}
									if len(want) > 0 && slices.ContainsFunc(want, func(c Candidate) bool { return c.Start == 0 }) {
										edge++
									}
								}
							}
						}
					}
				}
			}
			if capped == 0 || masked == 0 || edge == 0 {
				t.Fatalf("grid too easy: %d capped, %d masked, %d edge results", capped, masked, edge)
			}
		})
	}
}

// TestCandidatesIntoWarmZeroAllocs: once a buffer has seen a workload's
// largest read, neither index kind allocates, on the single-strand query
// or the both-strand one, at every offset or sampled.
func TestCandidatesIntoWarmZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1701))
	seq := oracleGenome(rng)
	direct, err := New(seq, 8)
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewLarge(seq, 16)
	if err != nil {
		t.Fatal(err)
	}
	opt := CandidateOptions{MaxCandidates: 8, MinVotes: 2, MaxBucket: 1024, Slack: 2}
	sampled := opt
	sampled.Stride = 4
	for name, idx := range map[string]SeedIndex{"direct": direct, "hash": large} {
		reads := oracleReads(rand.New(rand.NewSource(7)), seq, idx.K())
		var buf, rev CandidateBuf
		sweep := func() {
			for _, read := range reads {
				idx.CandidatesInto(read, opt, &buf)
				idx.CandidatesInto(read, sampled, &buf)
			}
		}
		both := func() {
			for _, read := range reads {
				idx.CandidatesBothInto(read, opt, &buf, &rev)
				idx.CandidatesBothInto(read, sampled, &buf, &rev)
			}
		}
		sweep()
		both()
		if avg := testing.AllocsPerRun(10, sweep); avg > 0 {
			t.Errorf("%s: warm CandidatesInto allocates %.1f per sweep, want 0", name, avg)
		}
		if avg := testing.AllocsPerRun(10, both); avg > 0 {
			t.Errorf("%s: warm CandidatesBothInto allocates %.1f per sweep, want 0", name, avg)
		}
	}
}

// propertyGenome is a random genome built to reach every branch of the
// canonical layout: N runs (1..2k bases), a palindromic seed (its own
// reverse complement, possible at even k only) planted six times, and a
// unit planted twelve times on alternating strands, so its seeds occur
// more often than any MaxStore and MaxBucket under test, in both
// orientations.
func propertyGenome(rng *rand.Rand, n, k int) (seq, pal, unit dna.Seq) {
	seq = randSeq(rng, n, 0)
	for i := 0; i < len(seq); i++ {
		if rng.Intn(300) == 0 {
			for j := rng.Intn(2 * k); j >= 0 && i < len(seq); j-- {
				seq[i] = dna.N
				i++
			}
		}
	}
	if k%2 == 0 {
		half := randSeq(rng, k/2, 0)
		pal = append(half.Clone(), half.ReverseComplement()...)
		for c := 0; c < 6; c++ {
			copy(seq[rng.Intn(n-k):], pal)
		}
	}
	unit = randSeq(rng, 30, 0)
	for c := 0; c < 12; c++ {
		u := unit
		if c%2 == 1 {
			u = unit.ReverseComplement()
		}
		copy(seq[rng.Intn(n-len(u)):], u)
	}
	return seq, pal, unit
}

// TestCandidatesBothIntoMatchesSingleStrand: for both index kinds, the
// both-strand query returns exactly the two single-strand calls' lists
// and SeedStats — the forward read's and its reverse complement's — and
// each of those is the scanning oracle's. Random genomes at even and
// odd k, the hashed index at every small MaxStore, reads sampled on
// either strand, through the planted palindrome and repeat, with Ns,
// and hanging off both genome ends. Sampled at strides 2, 3 and 4, the
// forward strand is still its single-strand call, and the reverse
// strand is the oracle over the mirrors of the forward sample.
func TestCandidatesBothIntoMatchesSingleStrand(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	type kind struct {
		name string
		idx  SeedIndex
		old  *scanOracle
	}
	var palSeeds, sampledPal, capped, masked int
	for trial, k := range []int{8, 12, 16, 20, 11, 15} {
		seq, pal, unit := propertyGenome(rng, 4000, k)
		var kinds []kind
		if k <= MaxDirectK {
			direct, err := New(seq, k)
			if err != nil {
				t.Fatal(err)
			}
			kinds = append(kinds, kind{fmt.Sprintf("direct-k%d", k), direct, newScanOracle(seq, k, math.MaxInt32)})
		}
		for _, maxStore := range []int{1, 2, 3, 4, 0} {
			large, err := NewLargeWith(seq, k, LargeConfig{MaxStore: maxStore})
			if err != nil {
				t.Fatal(err)
			}
			kinds = append(kinds, kind{fmt.Sprintf("hash-k%d-store%d", k, maxStore), large, newScanOracle(seq, k, large.MaxStore())})
		}

		var reads []dna.Seq
		for i := 0; i < 16; i++ {
			rd := seq[rng.Intn(len(seq)-62):][:62].Clone()
			rd[rng.Intn(62)] = dna.Code(rng.Intn(4))
			if i%2 == 1 {
				rd = rd.ReverseComplement()
			}
			reads = append(reads, rd)
		}
		for _, planted := range []dna.Seq{pal, unit} {
			if len(planted) > 0 {
				rd := append(randSeq(rng, 9, 0), planted...)
				reads = append(reads, append(rd, randSeq(rng, 11, 0)...))
			}
		}
		withN := seq[100:162].Clone()
		withN[5], withN[40] = dna.N, dna.N
		left := append(randSeq(rng, 9, 0), seq[:50]...)
		right := append(seq[len(seq)-50:].Clone(), randSeq(rng, 9, 0)...)
		reads = append(reads, withN, left, right, left.ReverseComplement(), right.ReverseComplement(),
			seq[:k-1].Clone(), seq[:k].Clone(), dna.Seq{})

		for _, kd := range kinds {
			var single, fwd, rev CandidateBuf
			var old oracleBuf
			for _, opt := range []CandidateOptions{
				{}, {MinVotes: 2, Slack: 2, MaxCandidates: 3, MaxBucket: 3},
				{MinVotes: 1, MaxCandidates: 8, MaxBucket: 8}, {MinVotes: 3, Slack: 4},
			} {
				for _, stride := range []int{0, 2, 3, 4} {
					opt.Stride = stride
					for r, read := range reads {
						f, r2 := kd.idx.CandidatesBothInto(read, opt, &fwd, &rev)
						for strand, got := range []struct {
							read  dna.Seq
							cands []Candidate
							stats SeedStats
							phase int
						}{{read, f, fwd.Stats, 0}, {read.ReverseComplement(), r2, rev.Stats, len(read) - k}} {
							if strand == 0 || stride == 0 {
								one := kd.idx.CandidatesInto(got.read, opt, &single)
								if !slices.Equal(got.cands, one) || got.stats != single.Stats {
									t.Fatalf("trial %d %s read %d strand %d %+v: both-strand %v %+v, single-strand %v %+v",
										trial, kd.name, r, strand, opt, got.cands, got.stats, one, single.Stats)
								}
							}
							want, wantStats := oracleCandidates(kd.old, got.read, opt, got.phase, &old)
							if !slices.Equal(got.cands, want) || got.stats != wantStats {
								t.Fatalf("trial %d %s read %d strand %d %+v: %v %+v, oracle %v %+v",
									trial, kd.name, r, strand, opt, got.cands, got.stats, want, wantStats)
							}
							if wantStats.Masked > 0 {
								masked++
							}
						}
					}
				}
			}
			// What the grid reached: palindromic seeds found (also at an
			// offset stride 3 samples), and samples the cap truncated.
			for _, read := range reads {
				forEachKmer(read, k, func(m, rc dna.Kmer, off int32) {
					hits, total := kd.old.lookupTotal(m)
					if m == rc && total > 0 {
						palSeeds++
						if off%3 == 0 {
							sampledPal++
						}
					}
					if total > len(hits) {
						capped++
					}
				})
			}
		}
	}
	if palSeeds == 0 || sampledPal == 0 || capped == 0 || masked == 0 {
		t.Fatalf("grid too easy: %d palindromic seed hits (%d sampled), %d capped samples, %d masked results", palSeeds, sampledPal, capped, masked)
	}
}
