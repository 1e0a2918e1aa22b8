// Package kmer implements the genomic k-mer hash index GNUMAP-SNP uses
// to find putative mapping regions (paper §V, step 1; default k = 10).
//
// The index is built over a reference sequence with a two-pass
// counting-sort layout: a flat offset table of 4^k buckets pointing into
// one shared position array. For the default k = 10 the offset table has
// ~1M entries and construction is a single O(L) scan, which is what
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
}

// seedSource is the group lookup behind the shared voting loop. resolve
// fills lo, n and total of every seed in b.seeds and returns the
// position array those ranges index: lo:lo+n is the stored (possibly
// frequency-capped) sample, total the seed's true occurrence count in
// the reference. The direct Index always stores every occurrence
// (total == n); the LargeIndex may truncate hot seeds but still reports
// the true total so repeat masking sees the real frequency.
type seedSource interface {
	K() int
	resolve(b *CandidateBuf) (positions []int32)
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
func New(seq dna.Seq, k int) (*Index, error) {
	if k <= 0 || k > MaxDirectK {
		return nil, fmt.Errorf("kmer: k=%d out of range [1,%d]", k, MaxDirectK)
	}
	if len(seq) > 1<<31-1 {
		return nil, fmt.Errorf("kmer: sequence length %d exceeds int32 positions", len(seq))
	}
	nBuckets := 1 << (2 * uint(k))
	offsets := make([]int32, nBuckets+1)

	// Pass 1: bucket counts.
	forEachKmer(seq, k, func(m dna.Kmer, pos int32) {
		offsets[m+1]++
	})
	// Prefix-sum into offsets.
	for i := 1; i <= nBuckets; i++ {
		offsets[i] += offsets[i-1]
	}
	positions := make([]int32, offsets[nBuckets])

	// Pass 2: fill. next tracks the write cursor per bucket.
	next := make([]int32, nBuckets)
	copy(next, offsets[:nBuckets])
	forEachKmer(seq, k, func(m dna.Kmer, pos int32) {
		positions[next[m]] = pos
		next[m]++
	})
	return &Index{k: k, offsets: offsets, positions: positions, seqLen: len(seq)}, nil
}

// forEachKmer calls fn for every packable k-mer window in seq, using a
// rolling pack that restarts after ambiguous bases.
func forEachKmer(seq dna.Seq, k int, fn func(m dna.Kmer, pos int32)) {
	forEachKmerRange(seq, k, 0, len(seq), fn)
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
	seeds []seedRef  // the strand's seed group
	slots []voteSlot // slot i is live iff slots[i].epoch == cur
	qual  []int32    // slots that reached MinVotes, in the order they did
	cur   uint32
	out   []Candidate
	// touched absorbs the group passes' early loads so the compiler
	// cannot drop them; its value means nothing.
	touched int32
	// Stats describes the call that last used this buffer; it is reset
	// at the top of every CandidatesInto, so callers that want
	// per-strand selectivity read it between calls.
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

// seedRef is one packable seed of the read: its packed value and read
// offset, then — filled by seedSource.resolve — the range lo:lo+n of
// the source's position array holding its stored sample, and its true
// occurrence count.
type seedRef struct {
	m            dna.Kmer
	off          int32
	lo, n, total int32
}

// voteSlot is one vote-table entry: one cache line per probe.
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
func castVotes(tab []voteSlot, cur uint32, seeds []seedRef, positions []int32, grid, minVotes int32, qual []int32) []int32 {
	mask := uint32(len(tab) - 1)
	shift := (32 - bits.TrailingZeros32(uint32(len(tab)))) & 31
	for i := range seeds {
		s := &seeds[i]
		for _, p := range positions[s.lo : s.lo+s.n] {
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

// resolve implements seedSource. The direct index stores every
// occurrence, so the sample is the bucket and the total its length.
func (ix *Index) resolve(b *CandidateBuf) []int32 {
	for i := range b.seeds {
		s := &b.seeds[i]
		lo, hi := ix.offsets[s.m], ix.offsets[s.m+1]
		s.lo, s.n, s.total = lo, hi-lo, hi-lo
	}
	return ix.positions
}

// candidatesInto is the diagonal-voting loop shared by every index
// representation. A strand's seeds are handled as a group, one pass per
// step, because every step but the voting is a scattered load: Go has
// no prefetch intrinsic, but the loads of one pass do not depend on
// each other, so the core overlaps their cache misses instead of
// paying them one seed at a time.
func candidatesInto(ix seedSource, read dna.Seq, opt CandidateOptions, buf *CandidateBuf) []Candidate {
	// Every packable seed, O(1) each.
	if cap(buf.seeds) < len(read) {
		buf.seeds = make([]seedRef, len(read))
	}
	seeds, n := buf.seeds[:len(read)], 0
	forEachKmer(read, ix.K(), func(m dna.Kmer, off int32) {
		seeds[n].m, seeds[n].off = m, off
		n++
	})
	seeds = seeds[:n]
	buf.seeds = seeds
	positions := ix.resolve(buf)

	// Repeat masking tests the true count so a frequency-capped index
	// masks exactly the seeds the direct index would. Touch each
	// surviving bucket's first position before any vote needs it.
	stats := SeedStats{Seeds: int64(n)}
	touched := buf.touched
	for i := range seeds {
		s := &seeds[i]
		if opt.MaxBucket > 0 && int(s.total) > opt.MaxBucket {
			stats.Masked++
			s.n = 0
		}
		if s.n > 0 {
			stats.Hits += int64(s.n)
			touched += positions[s.lo]
		}
	}
	buf.touched, buf.Stats = touched, stats

	tab := buf.voteTable(stats.Hits)
	minVotes := int32(min(max(opt.MinVotes, 1), math.MaxInt32))
	qual := castVotes(tab, buf.cur, seeds, positions, int32(opt.Slack+1), minVotes, buf.qual[:0])
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
