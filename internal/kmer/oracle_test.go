package kmer

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"gnumap/internal/dna"
)

// The oracle is the voting loop as it stood before seeds were resolved
// as a group: one O(k) pack, one lookup and one probe chain per seed,
// a three-array vote table grown mid-read, a walk over every live slot
// and a full sort. candidatesInto must return its candidates (order
// included) and its SeedStats exactly.

// oracleSource is the old per-seed lookup.
type oracleSource interface {
	K() int
	lookupTotal(m dna.Kmer) (positions []int32, total int)
}

type oracleDirect struct{ *Index }

func (o oracleDirect) lookupTotal(m dna.Kmer) ([]int32, int) {
	hits := o.Lookup(m)
	return hits, len(hits)
}

// oracleLarge carries the old LargeIndex.lookupTotal verbatim, so the
// find refactor is checked against it too.
type oracleLarge struct{ *LargeIndex }

func (o oracleLarge) lookupTotal(m dna.Kmer) ([]int32, int) {
	ix := o.LargeIndex
	h := mix64(uint64(m))
	p := h >> (64 - ix.partBits)
	lo, hi := ix.slotOff[p], ix.slotOff[p+1]
	size := hi - lo
	if size <= 0 {
		return nil, 0
	}
	mask := uint64(size - 1)
	i := h & mask
	for probes := int64(0); probes < size; probes++ {
		s := lo + int64(i)
		c := ix.counts[s]
		if c <= 0 {
			return nil, 0
		}
		if ix.keys[s] == uint64(m) {
			stored := int64(c)
			if ms := int64(ix.maxStore); stored > ms {
				stored = ms
			}
			st := int64(ix.starts[s])
			if st < 0 || st+stored > int64(len(ix.positions)) {
				return nil, 0
			}
			return ix.positions[st : st+stored], int(c)
		}
		i = (i + 1) & mask
	}
	return nil, 0
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

func oracleCandidates(ix oracleSource, read dna.Seq, opt CandidateOptions, buf *oracleBuf) ([]Candidate, SeedStats) {
	minVotes := opt.MinVotes
	if minVotes <= 0 {
		minVotes = 1
	}
	k := ix.K()
	buf.beginRead()
	var stats SeedStats
	for off := 0; off+k <= len(read); off++ {
		m, ok := dna.PackKmer(read, off, k)
		if !ok {
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
// old loop's candidates and stats for both index kinds (the hashed one
// heap-built, frequency-capped, and mmap-loaded) over the whole option
// grid, through one warm buffer per index so state carried between
// reads would show.
func TestCandidatesIntoMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1701))
	seq := oracleGenome(rng)
	type kind struct {
		name string
		idx  SeedIndex
		old  oracleSource
		k    int
	}
	var kinds []kind
	direct, err := New(seq, 8)
	if err != nil {
		t.Fatal(err)
	}
	kinds = append(kinds, kind{"direct-k8", direct, oracleDirect{direct}, 8})
	for _, c := range []struct{ k, maxStore int }{{8, 0}, {16, 0}, {12, 4}} {
		large, err := NewLargeWith(seq, c.k, LargeConfig{MaxStore: c.maxStore})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("hash-k%d-store%d", c.k, c.maxStore)
		kinds = append(kinds, kind{name, large, oracleLarge{large}, c.k})
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
		kinds = append(kinds, kind{name + "-mmap", mapped, oracleLarge{mapped}, c.k})
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
							opt := CandidateOptions{MinVotes: minVotes, Slack: slack, MaxCandidates: maxCands, MaxBucket: maxBucket}
							for r, read := range reads {
								want, wantStats := oracleCandidates(kd.old, read, opt, &old)
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
			if capped == 0 || masked == 0 || edge == 0 {
				t.Fatalf("grid too easy: %d capped, %d masked, %d edge results", capped, masked, edge)
			}
		})
	}
}

// TestCandidatesIntoWarmZeroAllocs: once a buffer has seen a workload's
// largest read, neither index kind allocates.
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
	for name, idx := range map[string]SeedIndex{"direct": direct, "hash": large} {
		reads := oracleReads(rand.New(rand.NewSource(7)), seq, idx.K())
		var buf CandidateBuf
		sweep := func() {
			for _, read := range reads {
				idx.CandidatesInto(read, opt, &buf)
			}
		}
		sweep()
		if avg := testing.AllocsPerRun(10, sweep); avg > 0 {
			t.Errorf("%s: warm CandidatesInto allocates %.1f per sweep, want 0", name, avg)
		}
	}
}
