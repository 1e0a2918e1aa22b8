// Large-seed index: the SNAP-style candidate generator for seeds beyond
// the direct-addressing ceiling (paper front end is k = 10; SNAP shows
// s ~ 20 seeds cut candidate alignments by orders of magnitude at
// genome scale because random seed collisions scale as L/4^s).
//
// A direct offset table is impossible above MaxDirectK (4^s buckets),
// so the LargeIndex is a two-level hash: the top partBits bits of a
// mixed 64-bit key hash select a partition, and each partition owns a
// power-of-two open-addressed (linear probing) region of one shared
// slot array. A key is a canonical k-mer, the lesser of a k-mer's pack
// and its reverse complement's, so one probe answers a read offset for
// both strands: the forward read's seed there and the reverse-complement
// read's mirrored seed are the same class. Each class keeps its
// occurrences split by orientation (the key itself, or its reverse
// complement), and per orientation its TRUE count and its first
// MaxStore positions in ascending order: a capped sample whose true
// count is retained, so MaxBucket repeat masking behaves exactly like
// the direct index and a microsatellite can never flood CandidatesInto
// through the cap. A class that occurs once lives entirely in its slot;
// larger ones point at a record in a shared array.
//
// Construction is parallel and deterministic: chunked rolling scans
// radix-partition (key, orientation, pos) triples by hash prefix,
// partitions are sorted and filled independently, and the layout depends
// only on the sorted order — never on worker count or scheduling.
package kmer

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"gnumap/internal/dna"
)

// DefaultMaxStore is the default per-seed stored-position cap. It
// matches the engine's default MaxBucket, so with default query options
// a capped bucket is either masked outright (true count > MaxBucket) or
// stored in full — the large index then votes bit-identically to a
// direct index at the same k.
const DefaultMaxStore = 1024

// largePartBits selects the partition by the top 8 hash bits: 256
// partitions is enough parallelism for construction and keeps the
// partition directory (slotOff) at a few KiB.
const largePartBits = 8

// LargeConfig tunes LargeIndex construction. Zero values are defaults.
type LargeConfig struct {
	// MaxStore caps the stored positions per seed (0 = DefaultMaxStore;
	// negative = store every occurrence).
	MaxStore int
	// Workers bounds construction parallelism (0 = GOMAXPROCS).
	Workers int
}

// LargeIndex is an immutable frequency-capped seed index for
// k in (MaxDirectK, dna.MaxKmerLen]. Safe for concurrent lookups.
// A LargeIndex is either heap-built (NewLarge) or backed by an
// mmap-persisted file (Load); Close releases the mapping.
type LargeIndex struct {
	k        int
	seqLen   int
	maxStore int
	partBits uint
	// slotOff has 1<<partBits+1 entries: partition p's slots occupy
	// [slotOff[p], slotOff[p+1]), a power-of-two-sized (possibly empty)
	// probe region.
	slotOff []int64
	// slots holds two words per slot: slots[2*i] is the canonical key,
	// slots[2*i+1] its entry (see slotFwd). A slot is free iff its entry
	// is 0, which leaves the full 64-bit key space usable.
	slots []uint64
	// recs holds the records of the classes that occur more than once:
	// the true counts n0 and n1 of the key and of its reverse complement,
	// then the first min(n0, maxStore) positions of the key, then the
	// first min(n1, maxStore) of its reverse complement, each ascending.
	// A palindrome (its own reverse complement) files all its occurrences
	// under the key, n1 = 0.
	recs []int32
	// mapped is the mmap backing when file-loaded (nil when heap-built).
	mapped []byte
}

// A slot's entry: the low two bits say what the high 32 bits hold.
const (
	slotFwd = 1 // the class's one occurrence is of the key, at entry>>32
	slotRev = 2 // the class's one occurrence is of its reverse complement
	slotRec = 3 // the class's record starts at recs[entry>>32]
)

// mix64 is the splitmix64 finalizer: a cheap invertible mix whose high
// bits (partition selector) and low bits (probe start) are both
// well-distributed even for the low-entropy packed seed values.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// seedPair is one occurrence during build: the canonical key, and the
// position with the orientation in bit 31 (1: the reference holds the
// key's reverse complement there), so sorting by (key, tag) groups each
// class's occurrences by orientation, each ascending.
type seedPair struct {
	key uint64
	tag uint32
}

// occurrence returns the build record of the k-mer m (reverse
// complement rc) at pos.
func occurrence(m, rc dna.Kmer, pos int32) seedPair {
	if rc < m {
		return seedPair{key: uint64(rc), tag: uint32(pos) | 1<<31}
	}
	return seedPair{key: uint64(m), tag: uint32(pos)}
}

// NewLarge builds a large-seed index with default configuration.
func NewLarge(seq dna.Seq, k int) (*LargeIndex, error) {
	return NewLargeWith(seq, k, LargeConfig{})
}

// NewLargeWith builds a large-seed index of every k-mer in seq. K-mers
// containing an ambiguous base are not indexed, exactly as in New.
func NewLargeWith(seq dna.Seq, k int, cfg LargeConfig) (*LargeIndex, error) {
	if k <= 0 || k > dna.MaxKmerLen {
		return nil, fmt.Errorf("kmer: large-seed k=%d out of range [1,%d]", k, dna.MaxKmerLen)
	}
	if len(seq) > 1<<31-1 {
		return nil, fmt.Errorf("kmer: sequence length %d exceeds int32 positions", len(seq))
	}
	maxStore := cfg.MaxStore
	switch {
	case maxStore == 0:
		maxStore = DefaultMaxStore
	case maxStore < 0:
		maxStore = math.MaxInt32
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nStarts := len(seq) - k + 1
	if nStarts < 0 {
		nStarts = 0
	}
	if workers > nStarts {
		workers = nStarts
	}
	if workers < 1 {
		workers = 1
	}
	const nParts = 1 << largePartBits
	ix := &LargeIndex{
		k: k, seqLen: len(seq), maxStore: maxStore, partBits: largePartBits,
		slotOff: make([]int64, nParts+1),
	}

	// Pass 1: per-(worker, partition) pair counts. Chunks split the
	// k-mer start positions; each chunk rolls independently (restarting
	// at its first base), so no state crosses chunk boundaries.
	chunk := func(w int) (int, int) {
		lo := w * nStarts / workers
		hi := (w + 1) * nStarts / workers
		return lo, hi
	}
	counts := make([][nParts]int64, workers)
	parallel(workers, func(w int) {
		lo, hi := chunk(w)
		c := &counts[w]
		forEachKmerRange(seq, k, lo, hi, func(m, rc dna.Kmer, pos int32) {
			c[mix64(min(uint64(m), uint64(rc)))>>(64-largePartBits)]++
		})
	})

	// Cursor layout: pairs grouped by partition, and within a partition
	// by worker (ascending chunk, hence ascending position).
	var cursors [][nParts]int64
	cursors = make([][nParts]int64, workers)
	total := int64(0)
	for p := 0; p < nParts; p++ {
		for w := 0; w < workers; w++ {
			cursors[w][p] = total
			total += counts[w][p]
		}
	}
	partPair := make([]int64, nParts+1) // pair region per partition
	{
		off := int64(0)
		for p := 0; p < nParts; p++ {
			partPair[p] = off
			for w := 0; w < workers; w++ {
				off += counts[w][p]
			}
		}
		partPair[nParts] = off
	}
	pairs := make([]seedPair, total)

	// Pass 2: write pairs through the per-worker cursors.
	parallel(workers, func(w int) {
		lo, hi := chunk(w)
		cur := &cursors[w]
		forEachKmerRange(seq, k, lo, hi, func(m, rc dna.Kmer, pos int32) {
			sp := occurrence(m, rc, pos)
			p := mix64(sp.key) >> (64 - largePartBits)
			pairs[cur[p]] = sp
			cur[p]++
		})
	})

	// classes calls fn for each class of a sorted span: its occurrences
	// of the key (fwd) and of the key's reverse complement (rev).
	classes := func(span []seedPair, fn func(key uint64, fwd, rev []seedPair)) {
		for i := 0; i < len(span); {
			j, r := i+1, i
			for j < len(span) && span[j].key == span[i].key {
				j++
			}
			for r < j && span[r].tag < 1<<31 {
				r++
			}
			fn(span[i].key, span[i:r], span[r:j])
			i = j
		}
	}
	// recLen is the record a class needs: none for one occurrence, else
	// the two counts and both capped samples.
	recLen := func(fwd, rev []seedPair) int64 {
		if len(fwd)+len(rev) == 1 {
			return 0
		}
		return int64(2 + min(len(fwd), maxStore) + min(len(rev), maxStore))
	}

	// Per-partition sort + sizing. Sorting by (key, tag) makes the
	// layout independent of worker count and keeps each orientation's
	// stored positions ascending, matching the direct index's bucket
	// order.
	type partMeta struct{ unique, recs int64 }
	meta := make([]partMeta, nParts)
	parallel(workers, func(w int) {
		for p := w; p < nParts; p += workers {
			span := pairs[partPair[p]:partPair[p+1]]
			slices.SortFunc(span, func(a, b seedPair) int {
				if c := cmp.Compare(a.key, b.key); c != 0 {
					return c
				}
				return cmp.Compare(a.tag, b.tag)
			})
			var pm partMeta
			classes(span, func(_ uint64, fwd, rev []seedPair) {
				pm.unique++
				pm.recs += recLen(fwd, rev)
			})
			meta[p] = pm
		}
	})

	// Directory prefix sums: each non-empty partition gets a
	// power-of-two probe region at most half full (load factor <= 0.5
	// keeps probes short and guarantees a free stop slot).
	nSlots, nRecs := int64(0), int64(0)
	partSlots := make([]int64, nParts)
	recBase := make([]int64, nParts)
	for p := 0; p < nParts; p++ {
		ix.slotOff[p] = nSlots
		if meta[p].unique > 0 {
			partSlots[p] = nextPow2(2 * meta[p].unique)
			nSlots += partSlots[p]
		}
		recBase[p] = nRecs
		nRecs += meta[p].recs
	}
	ix.slotOff[nParts] = nSlots
	if nRecs > math.MaxUint32 {
		return nil, fmt.Errorf("kmer: %d record words exceed the slot entry's 32-bit offset", nRecs)
	}
	ix.slots = make([]uint64, 2*nSlots)
	ix.recs = make([]int32, nRecs)

	// Fill: insert each partition's classes in sorted-key order. slots
	// was just zero-allocated, so a zero entry marks free slots during
	// probing as well as at query time.
	parallel(workers, func(w int) {
		for p := w; p < nParts; p += workers {
			span := pairs[partPair[p]:partPair[p+1]]
			base, mask := ix.slotOff[p], uint64(partSlots[p]-1)
			recCur := recBase[p]
			classes(span, func(key uint64, fwd, rev []seedPair) {
				s := base + int64(mix64(key)&mask)
				for ix.slots[2*s+1] != 0 {
					s = base + int64((uint64(s-base)+1)&mask)
				}
				ix.slots[2*s] = key
				switch {
				case recLen(fwd, rev) > 0:
					ix.slots[2*s+1] = uint64(recCur)<<32 | slotRec
					rec := ix.recs[recCur:]
					rec[0], rec[1] = int32(len(fwd)), int32(len(rev))
					n := 2
					for _, side := range [2][]seedPair{fwd, rev} {
						for _, sp := range side[:min(len(side), maxStore)] {
							rec[n] = int32(sp.tag &^ (1 << 31))
							n++
						}
					}
					recCur += int64(n)
				case len(fwd) == 1:
					ix.slots[2*s+1] = uint64(fwd[0].tag)<<32 | slotFwd
				default:
					ix.slots[2*s+1] = uint64(rev[0].tag&^(1<<31))<<32 | slotRev
				}
			})
		}
	})
	return ix, nil
}

// parallel runs fn(0..n-1) on n goroutines and waits.
func parallel(n int, fn func(i int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// nextPow2 rounds n up to a power of two (minimum 1).
func nextPow2(n int64) int64 {
	p := int64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// forEachKmerRange calls fn for every packable k-mer whose start
// position lies in [lo, hi), with its reverse complement's pack,
// rolling independently of any other range so chunked scans partition
// the work with no shared state: a k-mer starting at p only reads bases
// p..p+k-1, all >= lo.
func forEachKmerRange(seq dna.Seq, k, lo, hi int, fn func(m, rc dna.Kmer, pos int32)) {
	if hi > len(seq)-k+1 {
		hi = len(seq) - k + 1
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return
	}
	// m takes each base in at the bottom, rc its complement (3-c) at the
	// top; valid counts the concrete bases since the last ambiguous one,
	// and by valid == k both hold nothing older than the window.
	var m, rc dna.Kmer
	valid := 0
	mask := dna.Kmer(1)<<(2*uint(k)) - 1
	top := 2 * uint(k-1)
	for i := lo; i < hi+k-1; i++ {
		c := seq[i]
		if !c.IsConcrete() {
			valid = 0
			continue
		}
		m = (m<<2 | dna.Kmer(c)) & mask
		rc = rc>>2 | dna.Kmer(3-c)<<top
		valid++
		if valid >= k {
			if p := i - k + 1; p < hi {
				fn(m, rc, int32(p))
			}
		}
	}
}

// K returns the indexed mer size.
func (ix *LargeIndex) K() int { return ix.k }

// SeqLen returns the length of the indexed sequence.
func (ix *LargeIndex) SeqLen() int { return ix.seqLen }

// MaxStore returns the per-seed stored-position cap.
func (ix *LargeIndex) MaxStore() int { return ix.maxStore }

// MemoryBytes reports the footprint of every retained array — the
// directory, the slots and the records. For an mmap-loaded index this
// equals the bytes of the mapping actually referenced (the file pages
// back the slices).
func (ix *LargeIndex) MemoryBytes() int64 {
	return int64(len(ix.slotOff))*8 + int64(len(ix.slots))*8 + int64(len(ix.recs))*4
}

// home returns the index in slots of key's first probe, and the size of
// its partition's region (0: the partition is empty).
func (ix *LargeIndex) home(key uint64) (h uint64, lo, size int64) {
	h = mix64(key)
	p := h >> (64 - ix.partBits)
	lo = ix.slotOff[p]
	return h, lo, ix.slotOff[p+1] - lo
}

// resolve implements seedSource with one probe per read offset: the
// seed there and its reverse complement — the mirror strand's seed —
// share a canonical key. A probe is a chain of dependent cache misses,
// so the group first loads every key's home slot (key and entry share
// its line) — independent loads whose misses overlap — and only then
// runs the probe loops, which find their lines cached. The early load
// lands in total, which fill overwrites, so the compiler keeps it.
func (ix *LargeIndex) resolve(seeds, mirror []seedRef) {
	for i := range seeds {
		if h, lo, size := ix.home(min(uint64(seeds[i].m), uint64(seeds[i].rc))); size > 0 {
			s := lo + int64(h&uint64(size-1))
			seeds[i].total = int32(ix.slots[2*s+1])
		}
	}
	last := len(seeds) - 1
	for i := range seeds {
		s := &seeds[i]
		key := min(s.m, s.rc)
		entry := ix.probe(uint64(key))
		ix.fill(s, entry, s.m != key)
		if mirror != nil {
			ix.fill(&mirror[last-i], entry, s.rc != key)
		}
	}
}

// probe returns the entry of the class keyed key, 0 when absent. The
// probe counter bounds the scan on a table with no free slots
// (impossible for a built index, reachable only via corruption).
func (ix *LargeIndex) probe(key uint64) uint64 {
	h, lo, size := ix.home(key)
	if size <= 0 {
		return 0
	}
	mask := uint64(size - 1)
	i := h & mask
	for probes := int64(0); probes < size; probes++ {
		s := 2 * (lo + int64(i))
		entry := ix.slots[s+1]
		if entry == 0 || ix.slots[s] == key {
			return entry
		}
		i = (i + 1) & mask
	}
	return 0
}

// fill sets s's sample and true count from its class's entry: the
// occurrences of the key itself, or with rev those of its reverse
// complement. A position or record that a corrupt mapping puts out of
// range reads as absent instead of panicking.
func (ix *LargeIndex) fill(s *seedRef, entry uint64, rev bool) {
	s.hits, s.total = nil, 0
	at := int64(entry >> 32)
	switch entry & 3 {
	case slotFwd, slotRev:
		if rev == (entry&3 == slotRev) && at <= int64(ix.seqLen-ix.k) {
			s.one[0] = int32(at)
			s.hits, s.total = s.one[:], 1
		}
	case slotRec:
		if at+2 > int64(len(ix.recs)) {
			return
		}
		n0, n1 := ix.recs[at], ix.recs[at+1]
		if n0 < 0 || n1 < 0 {
			return
		}
		ms := int64(ix.maxStore)
		lo, n, total := at+2, min(int64(n0), ms), n0
		if rev {
			lo, n, total = lo+n, min(int64(n1), ms), n1
		}
		if lo+n > int64(len(ix.recs)) {
			return
		}
		s.hits, s.total = ix.recs[lo:lo+n], total
	}
}

// Candidates votes the read's seeds into mapping regions; see
// Index.Candidates.
func (ix *LargeIndex) Candidates(read dna.Seq, opt CandidateOptions) []Candidate {
	return ix.CandidatesInto(read, opt, &CandidateBuf{})
}

// CandidatesInto is Candidates with caller-owned scratch; the voting
// loop is shared with the direct index (candidatesInto).
func (ix *LargeIndex) CandidatesInto(read dna.Seq, opt CandidateOptions, buf *CandidateBuf) []Candidate {
	return candidatesInto(ix, read, opt, buf)
}

// CandidatesBothInto implements SeedIndex with one probe per read
// offset for both strands.
func (ix *LargeIndex) CandidatesBothInto(read dna.Seq, opt CandidateOptions, fwd, rev *CandidateBuf) (f, r []Candidate) {
	return candidatesBothInto(ix, read, opt, fwd, rev)
}
