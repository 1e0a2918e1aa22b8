// Package kmer implements the genomic k-mer hash index GNUMAP-SNP uses
// to find putative mapping regions (paper §V, step 1; default k = 10).
//
// The index is built over a reference sequence with a two-pass
// counting-sort layout: a flat offset table of 4^k buckets pointing into
// one shared position array. For the default k = 10 the offset table has
// ~1M entries and construction is two O(L) rolls over the sequence plus
// one prefix sum, with no array beside the two it keeps, which is what
// makes indexing a full chromosome practical. Buckets larger than a
// configurable threshold (repeat k-mers) can be masked out at query
// time so a single microsatellite does not flood the candidate list.
package kmer

import (
	"fmt"
	"math"
	"math/bits"

	"gnumap/internal/dna"
)

// DefaultK is the paper's default mer size.
const DefaultK = 10

// MaxDirectK bounds the direct-addressed offset table at 4^14 entries
// (~1 GiB of int32 would be 4^15; 4^14 = 268M entries is already the
// practical ceiling). Longer seeds use the two-level hashed LargeIndex
// (largeseed.go) instead.
const MaxDirectK = 14

// SeedIndex is the candidate-generation interface shared by the
// direct-addressed Index (k <= MaxDirectK) and the hashed LargeIndex.
// Implementations are immutable after construction and safe for
// concurrent lookups.
type SeedIndex interface {
	// K returns the indexed mer size.
	K() int
	// SeqLen returns the length of the indexed sequence.
	SeqLen() int
	// MemoryBytes reports the footprint of every retained array.
	MemoryBytes() int64
	// Candidates votes the read's seeds into mapping regions.
	Candidates(read dna.Seq, opt CandidateOptions) []Candidate
	// CandidatesInto is Candidates with caller-owned scratch.
	CandidatesInto(read dna.Seq, opt CandidateOptions, buf *CandidateBuf) []Candidate
	// CandidatesBothInto is CandidatesInto for the read into fwd and for
	// its reverse complement into rev, from one pass over the read's
	// seeds: each returns, and leaves in its buffer's Stats, exactly
	// what that strand's own CandidatesInto call would. Under a Stride
	// the reverse strand votes the mirrors of the forward strand's
	// sampled seeds (read offsets n-k-off), not its own sample.
	CandidatesBothInto(read dna.Seq, opt CandidateOptions, fwd, rev *CandidateBuf) (f, r []Candidate)
}

// seedSource is the group lookup behind the shared voting loop. resolve
// fills hits and total of every seed in seeds: hits is the stored
// (possibly frequency-capped) sample, ascending, total the seed's true
// occurrence count in the reference. With mirror non-nil it also fills
// mirror[len(seeds)-1-i], the reverse-complement read's seed whose pack
// is seeds[i].rc. The direct Index always stores every occurrence
// (total == len(hits)); the LargeIndex may truncate hot seeds but still
// reports the true total so repeat masking sees the real frequency.
type seedSource interface {
	K() int
	resolve(seeds, mirror []seedRef)
}

// Build constructs the appropriate index representation for k: the
// direct-addressed Index up to MaxDirectK, the hashed LargeIndex above
// it (SNAP-style large seeds, up to dna.MaxKmerLen).
func Build(seq dna.Seq, k int) (SeedIndex, error) {
	if k > MaxDirectK {
		return NewLarge(seq, k)
	}
	return New(seq, k)
}

// Index is an immutable k-mer position index over one reference
// sequence. It is safe for concurrent lookups.
type Index struct {
	k int
	// offsets has 4^k+1 entries; bucket m occupies
	// positions[offsets[m]:offsets[m+1]].
	offsets   []int32
	positions []int32
	seqLen    int
}

// New builds an index of every k-mer in seq. K-mers containing an
// ambiguous base are not indexed (the mapper re-seeds around them).
//
// It is a counting sort in two rolls of the same right-to-left pack: the
// first counts each bucket, an inclusive prefix sum turns the counts into
// bucket ends, and the second writes each position at its bucket's
// end and moves that end down. Rolling right to left fills every bucket
// back to front, so its positions come out ascending and offsets ends
// holding each bucket's start — no write cursor array beside it.
func New(seq dna.Seq, k int) (*Index, error) {
	if k <= 0 || k > MaxDirectK {
		return nil, fmt.Errorf("kmer: k=%d out of range [1,%d]", k, MaxDirectK)
	}
	if len(seq) > 1<<31-1 {
		return nil, fmt.Errorf("kmer: sequence length %d exceeds int32 positions", len(seq))
	}
	nBuckets := 1 << (2 * uint(k))
	offsets := make([]int32, nBuckets+1)
	// The pack of the k-mer starting at i holds seq[i] in its top two
	// bits: base i enters at top as base i+k shifts out at the bottom,
	// and run counts the concrete bases from i on. An ambiguous base
	// resets run only; whatever m held has shifted out by run == k.
	top := 2 * uint(k-1)

	// Pass 1: bucket counts.
	var m dna.Kmer
	run := 0
	for i := len(seq) - 1; i >= 0; i-- {
		c := seq[i]
		if !c.IsConcrete() {
			run = 0
			continue
		}
		m = m>>2 | dna.Kmer(c)<<top
		if run++; run >= k {
			offsets[m]++
		}
	}
	// Inclusive prefix sums: offsets[b] is the end of bucket b. The
	// running sum stays in a register rather than being reloaded from
	// the entry just stored.
	var end int32
	ends := offsets[:nBuckets]
	for b, n := range ends {
		end += n
		ends[b] = end
	}
	offsets[nBuckets] = end
	positions := make([]int32, offsets[nBuckets])

	// Pass 2: fill each bucket from its end.
	run = 0
	for i := len(seq) - 1; i >= 0; i-- {
		c := seq[i]
		if !c.IsConcrete() {
			run = 0
			continue
		}
		m = m>>2 | dna.Kmer(c)<<top
		if run++; run >= k {
			p := offsets[m] - 1
			offsets[m] = p
			positions[p] = int32(i)
		}
	}
	return &Index{k: k, offsets: offsets, positions: positions, seqLen: len(seq)}, nil
}

// K returns the indexed mer size.
func (ix *Index) K() int { return ix.k }

// SeqLen returns the length of the indexed sequence.
func (ix *Index) SeqLen() int { return ix.seqLen }

// Lookup returns the sorted start positions of the packed k-mer. The
// returned slice aliases the index; callers must not mutate it.
func (ix *Index) Lookup(m dna.Kmer) []int32 {
	if int(m) >= len(ix.offsets)-1 {
		return nil
	}
	return ix.positions[ix.offsets[m]:ix.offsets[m+1]]
}

// MemoryBytes reports the approximate heap footprint of the index,
// used by the Table II memory accounting.
func (ix *Index) MemoryBytes() int64 {
	return int64(len(ix.offsets))*4 + int64(len(ix.positions))*4
}

// Candidate is a putative mapping region: the genome offset at which the
// read would start, and the number of seed k-mers voting for it.
type Candidate struct {
	Start int32
	Votes int32
}

// CandidateOptions tunes candidate-region generation.
type CandidateOptions struct {
	// MaxBucket masks k-mers occurring more often than this in the
	// reference (repeat masking). Zero means no masking.
	MaxBucket int
	// MaxCandidates caps the number of returned regions, keeping the
	// highest-voted. Zero means no cap.
	MaxCandidates int
	// MinVotes drops regions with fewer seed votes. Zero means 1.
	MinVotes int
	// Slack merges candidate starts within this many bases of each
	// other into one region (indels shift the implied start). Zero
	// means exact-diagonal voting.
	Slack int
	// Stride samples the read's seeds: only those at read offsets
	// divisible by Stride are looked up and voted (a both-strand query
	// votes the reverse strand's mirrors of those). Zero and one mean
	// every offset.
	Stride int
}

// CandidateBuf is reusable scratch for CandidatesInto, letting a
// per-worker caller run candidate generation without steady-state heap
// allocations. The zero value is ready to use.
//
// The diagonal-voting table is open-addressed (linear probing) rather
// than a Go map: per read it is cleared by bumping an epoch counter
// instead of rehashing or rezeroing, and a read probes only a prefix
// sized from its own hit count (DESIGN.md §16, "Query path").
type CandidateBuf struct {
	seeds []seedRef  // the strand's seed group, in read-offset order
	slots []voteSlot // slot i is live iff slots[i].epoch == cur
	qual  []int32    // slots that reached MinVotes, in the order they did
	cur   uint32
	out   []Candidate
	// touched absorbs the group passes' early loads so the compiler
	// cannot drop them; its value means nothing.
	touched int32
	// Stats describes the strand that last used this buffer; every
	// query resets it, so callers that want per-strand selectivity read
	// it between calls, or give each strand its own buffer.
	Stats SeedStats
}

// SeedStats is the selectivity record of one CandidatesInto call: how
// many seeds were looked up, how many were masked as over-frequent
// (true occurrence count above MaxBucket), and how many index positions
// were voted. Hits is the work the diagonal voter actually did — the
// number the large-seed index exists to shrink.
type SeedStats struct {
	Seeds, Masked, Hits int64
}

// seedRef is one packable seed of the read: its pack, its reverse
// complement's pack and its read offset, then — filled by
// seedSource.resolve — its stored sample and true occurrence count. A
// sample the index holds inline (one position in a hash slot) is copied
// into one, and hits points there.
type seedRef struct {
	m, rc dna.Kmer
	off   int32
	total int32
	hits  []int32
	one   [1]int32
}

// seedSpace returns the buffer's seed array with room for a read of n
// bases.
func (b *CandidateBuf) seedSpace(n int) []seedRef {
	if cap(b.seeds) < n {
		b.seeds = make([]seedRef, n)
	}
	return b.seeds[:n]
}

// voteSlot is one vote-table entry, 12 bytes: a probe reads key and
// epoch from one slot instead of from three arrays.
type voteSlot struct {
	key, val int32
	epoch    uint32
}

// voteTable returns the table prefix for a read about to cast hits
// votes: a power of two at most half full, so a probe always ends at a
// dead slot, and every slot of it dead. Growing allocates, but the
// array never shrinks, so a warm buffer runs allocation-free.
func (b *CandidateBuf) voteTable(hits int64) []voteSlot {
	size := max(64, int(nextPow2(2*hits)))
	if size > len(b.slots) {
		b.slots = make([]voteSlot, size)
		b.cur = 0
	}
	b.cur++
	if b.cur == 0 { // uint32 wraparound: stale epochs must not alias
		clear(b.slots)
		b.cur = 1
	}
	return b.slots[:size]
}

// castVotes votes every stored position of every seed into tab on its
// true (possibly negative) diagonal — clamping here used to pool every
// read-hangs-off-the-left-edge diagonal into position 0, inflating its
// vote count — and appends to qual each slot as it reaches minVotes.
func castVotes(tab []voteSlot, cur uint32, seeds []seedRef, grid, minVotes int32, qual []int32) []int32 {
	mask := uint32(len(tab) - 1)
	shift := (32 - bits.TrailingZeros32(uint32(len(tab)))) & 31
	for i := range seeds {
		s := &seeds[i]
		for _, p := range s.hits {
			start := p - s.off
			// Snap the diagonal to a grid so small indel shifts coalesce
			// into the same candidate region. Go's % keeps the sign, so
			// negative diagonals land on a uniform grid too (-6, -3, 0, 3
			// for slack 2). The engine's two grids divide by a constant.
			switch grid {
			case 1:
			case 3:
				start -= start % 3
			default:
				start -= start % grid
			}
			// Fibonacci hashing: the product's high bits index the table.
			j := uint32(start) * 2654435761 >> shift
			sl := &tab[j]
			for sl.epoch == cur && sl.key != start {
				j = (j + 1) & mask
				sl = &tab[j]
			}
			// Opening a diagonal and re-voting one share a path: which
			// it will be is a coin flip the branch predictor loses.
			v := sl.val + 1
			if sl.epoch != cur {
				v = 1
			}
			*sl = voteSlot{key: start, val: v, epoch: cur}
			if v == minVotes {
				qual = append(qual, int32(j))
			}
		}
	}
	return qual
}

// Candidates seeds every k-mer of the read into the index and votes on
// implied read start positions ("diagonals"). It returns candidates
// sorted by descending votes, ties by ascending start.
func (ix *Index) Candidates(read dna.Seq, opt CandidateOptions) []Candidate {
	return ix.CandidatesInto(read, opt, &CandidateBuf{})
}

// CandidatesInto is Candidates with caller-owned scratch: the returned
// slice aliases buf and is invalidated by the next CandidatesInto call
// with the same buf.
func (ix *Index) CandidatesInto(read dna.Seq, opt CandidateOptions, buf *CandidateBuf) []Candidate {
	return candidatesInto(ix, read, opt, buf)
}

// CandidatesBothInto implements SeedIndex: the direct table has no
// canonical keys, so each offset still looks up both packs, but the
// read is rolled once.
func (ix *Index) CandidatesBothInto(read dna.Seq, opt CandidateOptions, fwd, rev *CandidateBuf) (f, r []Candidate) {
	return candidatesBothInto(ix, read, opt, fwd, rev)
}

// resolve implements seedSource. The direct index stores every
// occurrence, so the sample is the bucket and the total its length.
func (ix *Index) resolve(seeds, mirror []seedRef) {
	for _, strand := range [2][]seedRef{seeds, mirror} {
		for i := range strand {
			s := &strand[i]
			s.hits = ix.positions[ix.offsets[s.m]:ix.offsets[s.m+1]]
			s.total = int32(len(s.hits))
		}
	}
}

// packSeeds writes every packable seed of read at a read offset
// divisible by stride into seeds, in read-offset order, and returns
// them. It is forEachKmerRange's roll without the closure: m takes each
// base in at the bottom, rc its complement at the top, valid counts the
// concrete bases since the last ambiguous one, and ph is the offset of
// the seed ending at base i, modulo stride.
func packSeeds(read dna.Seq, k, stride int, seeds []seedRef) []seedRef {
	var m, rc dna.Kmer
	valid, n := 0, 0
	mask := dna.Kmer(1)<<(2*uint(k)) - 1
	top := 2 * uint(k-1)
	stride = max(stride, 1)
	ph := ((1-k)%stride + stride) % stride
	for i, c := range read {
		sampled := ph == 0
		if ph++; ph == stride {
			ph = 0
		}
		if !c.IsConcrete() {
			valid = 0
			continue
		}
		m = (m<<2 | dna.Kmer(c)) & mask
		rc = rc>>2 | dna.Kmer(3-c)<<top
		if valid++; valid >= k && sampled {
			seeds[n] = seedRef{m: m, rc: rc, off: int32(i - k + 1)}
			n++
		}
	}
	return seeds[:n]
}

// candidatesInto is the single-strand query shared by every index
// representation: pack the read's seeds, resolve them as a group, vote.
func candidatesInto(ix seedSource, read dna.Seq, opt CandidateOptions, buf *CandidateBuf) []Candidate {
	buf.seeds = packSeeds(read, ix.K(), opt.Stride, buf.seedSpace(len(read)))
	ix.resolve(buf.seeds, nil)
	return buf.vote(opt)
}

// candidatesBothInto is the both-strand query. The reverse complement of
// a read of n bases has, at offset n-k-off, the seed whose pack is the
// read's seed at off's reverse complement — the one pass that packs the
// forward seeds has already rolled it. Filling rev's seeds back to
// front keeps them in the reverse-complement read's own offset order, so
// each strand votes exactly as its own CandidatesInto call would. Under
// a Stride the reverse strand votes the mirrors of the forward strand's
// sampled seeds, so one probe still serves both.
func candidatesBothInto(ix seedSource, read dna.Seq, opt CandidateOptions, fwd, rev *CandidateBuf) (f, r []Candidate) {
	k := ix.K()
	seeds := packSeeds(read, k, opt.Stride, fwd.seedSpace(len(read)))
	mirror := rev.seedSpace(len(read))[:len(seeds)]
	last := int32(len(read) - k)
	for i, s := range seeds {
		mirror[len(seeds)-1-i] = seedRef{m: s.rc, rc: s.m, off: last - s.off}
	}
	fwd.seeds, rev.seeds = seeds, mirror
	ix.resolve(seeds, mirror)
	return fwd.vote(opt), rev.vote(opt)
}

// vote is the diagonal-voting loop over the buffer's resolved seeds. A
// strand's seeds are handled as a group, one pass per step, because
// every step but the voting is a scattered load: Go has no prefetch
// intrinsic, but the loads of one pass do not depend on each other, so
// the core overlaps their cache misses instead of paying them one seed
// at a time.
func (buf *CandidateBuf) vote(opt CandidateOptions) []Candidate {
	seeds := buf.seeds
	// Repeat masking tests the true count so a frequency-capped index
	// masks exactly the seeds the direct index would. Touch each
	// surviving bucket's first position before any vote needs it.
	stats := SeedStats{Seeds: int64(len(seeds))}
	touched := buf.touched
	for i := range seeds {
		s := &seeds[i]
		if opt.MaxBucket > 0 && int(s.total) > opt.MaxBucket {
			stats.Masked++
			s.hits = nil
		}
		if len(s.hits) > 0 {
			stats.Hits += int64(len(s.hits))
			touched += s.hits[0]
		}
	}
	buf.touched, buf.Stats = touched, stats

	tab := buf.voteTable(stats.Hits)
	minVotes := int32(min(max(opt.MinVotes, 1), math.MaxInt32))
	qual := castVotes(tab, buf.cur, seeds, int32(opt.Slack+1), minVotes, buf.qual[:0])
	buf.qual = qual

	// Keep the best MaxCandidates under the total order (votes
	// descending, start ascending). Starts are distinct, so this is the
	// sorted list's prefix whatever order the slots arrive in. Negative
	// implied starts clamp to 0 only now, after voting, where several can
	// collide: they describe the same leftmost alignment window, so the
	// best-voted one stands for all (summing would reintroduce the
	// pooling bug) and competes as a single candidate at 0.
	limit := opt.MaxCandidates
	if limit <= 0 {
		limit = len(qual)
	}
	cands, edgeVotes := buf.out[:0], int32(0)
	for _, j := range qual {
		if sl := tab[j]; sl.key <= 0 {
			edgeVotes = max(edgeVotes, sl.val)
		} else {
			cands = insertTop(cands, Candidate{Start: sl.key, Votes: sl.val}, limit)
		}
	}
	if edgeVotes > 0 {
		cands = insertTop(cands, Candidate{Start: 0, Votes: edgeVotes}, limit)
	}
	buf.out = cands
	return cands
}

// insertTop inserts c into the ordered list top, which holds at most
// limit candidates, dropping the worst when full.
func insertTop(top []Candidate, c Candidate, limit int) []Candidate {
	before := func(a, b Candidate) bool {
		return a.Votes > b.Votes || a.Votes == b.Votes && a.Start < b.Start
	}
	if len(top) < limit {
		top = append(top, c)
	} else if !before(c, top[limit-1]) {
		return top
	}
	i := len(top) - 1
	for ; i > 0 && before(c, top[i-1]); i-- {
		top[i] = top[i-1]
	}
	top[i] = c
	return top
}
