// Large-seed index: the SNAP-style candidate generator for seeds beyond
// the direct-addressing ceiling (paper front end is k = 10; SNAP shows
// s ~ 20 seeds cut candidate alignments by orders of magnitude at
// genome scale because random seed collisions scale as L/4^s).
//
// A direct offset table is impossible above MaxDirectK (4^s buckets),
// so the LargeIndex is a two-level hash: the top partBits bits of a
// mixed 64-bit seed hash select a partition, and each partition owns a
// power-of-two open-addressed (linear probing) region of one shared
// slot array. Slots carry the seed key, the seed's TRUE occurrence
// count, and the start of its stored positions in one shared position
// array. High-occurrence seeds keep only the first MaxStore positions
// (a capped sample) but the true count is retained, so MaxBucket repeat
// masking behaves exactly like the direct index and a microsatellite
// can never flood CandidatesInto through the cap.
//
// Construction is parallel and deterministic: chunked rolling scans
// radix-partition (key, pos) pairs by hash prefix, partitions are
// sorted and filled independently, and the layout depends only on the
// sorted pair order — never on worker count or scheduling.
package kmer

import (
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
	// Parallel slot arrays. A slot is empty iff counts[i] == 0 (every
	// stored seed occurs at least once), which leaves the full 64-bit
	// key space usable — at k = 32 every bit pattern is a valid seed.
	keys   []uint64
	starts []int32
	counts []int32
	// positions stores, per seed, the first min(count, maxStore)
	// occurrence positions in ascending order.
	positions []int32
	// mapped is the mmap backing when file-loaded (nil when heap-built).
	mapped []byte
}

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

// seedPair is one (seed, start position) occurrence during build.
type seedPair struct {
	key uint64
	pos int32
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
		forEachKmerRange(seq, k, lo, hi, func(m dna.Kmer, pos int32) {
			c[mix64(uint64(m))>>(64-largePartBits)]++
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
		forEachKmerRange(seq, k, lo, hi, func(m dna.Kmer, pos int32) {
			p := mix64(uint64(m)) >> (64 - largePartBits)
			pairs[cur[p]] = seedPair{key: uint64(m), pos: pos}
			cur[p]++
		})
	})

	// Per-partition sort + sizing. Sorting by (key, pos) makes the
	// layout independent of worker count and keeps each seed's stored
	// positions ascending, matching the direct index's bucket order.
	type partMeta struct{ unique, retained int64 }
	meta := make([]partMeta, nParts)
	parallel(workers, func(w int) {
		for p := w; p < nParts; p += workers {
			span := pairs[partPair[p]:partPair[p+1]]
			slices.SortFunc(span, func(a, b seedPair) int {
				switch {
				case a.key != b.key:
					if a.key < b.key {
						return -1
					}
					return 1
				default:
					return int(a.pos - b.pos)
				}
			})
			var unique, retained int64
			for i := 0; i < len(span); {
				j := i + 1
				for j < len(span) && span[j].key == span[i].key {
					j++
				}
				unique++
				n := int64(j - i)
				if n > int64(maxStore) {
					n = int64(maxStore)
				}
				retained += n
				i = j
			}
			meta[p] = partMeta{unique: unique, retained: retained}
		}
	})

	// Directory prefix sums: each non-empty partition gets a
	// power-of-two probe region at most half full (load factor <= 0.5
	// keeps probes short and guarantees an empty stop slot).
	nSlots, nPos := int64(0), int64(0)
	partSlots := make([]int64, nParts)
	for p := 0; p < nParts; p++ {
		ix.slotOff[p] = nSlots
		if meta[p].unique > 0 {
			partSlots[p] = nextPow2(2 * meta[p].unique)
			nSlots += partSlots[p]
		}
		nPos += meta[p].retained
	}
	ix.slotOff[nParts] = nSlots
	ix.keys = make([]uint64, nSlots)
	ix.starts = make([]int32, nSlots)
	ix.counts = make([]int32, nSlots)
	ix.positions = make([]int32, nPos)

	// Position-array base per partition (same order as the directory).
	posBase := make([]int64, nParts)
	{
		off := int64(0)
		for p := 0; p < nParts; p++ {
			posBase[p] = off
			off += meta[p].retained
		}
	}

	// Fill: insert each partition's distinct seeds in sorted-key order.
	// counts was just zero-allocated, so "counts == 0" marks free slots
	// during probing as well as at query time.
	parallel(workers, func(w int) {
		for p := w; p < nParts; p += workers {
			span := pairs[partPair[p]:partPair[p+1]]
			base, size := ix.slotOff[p], partSlots[p]
			posCur := posBase[p]
			for i := 0; i < len(span); {
				j := i + 1
				for j < len(span) && span[j].key == span[i].key {
					j++
				}
				key := span[i].key
				mask := uint64(size - 1)
				s := base + int64(mix64(key)&mask)
				for ix.counts[s] != 0 {
					s = base + int64((uint64(s-base)+1)&mask)
				}
				ix.keys[s] = key
				ix.counts[s] = int32(j - i)
				ix.starts[s] = int32(posCur)
				store := j - i
				if store > maxStore {
					store = maxStore
				}
				for t := 0; t < store; t++ {
					ix.positions[posCur] = span[i+t].pos
					posCur++
				}
				i = j
			}
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
// position lies in [lo, hi), rolling independently of any other range
// so chunked scans partition the work with no shared state: a k-mer
// starting at p only reads bases p..p+k-1, all >= lo.
func forEachKmerRange(seq dna.Seq, k, lo, hi int, fn func(m dna.Kmer, pos int32)) {
	if hi > len(seq)-k+1 {
		hi = len(seq) - k + 1
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return
	}
	var m dna.Kmer
	valid := 0
	mask := dna.Kmer(1)<<(2*uint(k)) - 1
	for i := lo; i < hi+k-1; i++ {
		c := seq[i]
		if !c.IsConcrete() {
			valid = 0
			m = 0
			continue
		}
		m = (m<<2 | dna.Kmer(c)) & mask
		valid++
		if valid >= k {
			if p := i - k + 1; p < hi {
				fn(m, int32(p))
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
// directory, all three slot arrays, and the position array. For an
// mmap-loaded index this equals the bytes of the mapping actually
// referenced (the file pages back the slices).
func (ix *LargeIndex) MemoryBytes() int64 {
	return int64(len(ix.slotOff))*8 +
		int64(len(ix.keys))*8 +
		int64(len(ix.starts))*4 +
		int64(len(ix.counts))*4 +
		int64(len(ix.positions))*4
}

// find is the probe loop: where the seed's stored sample (at most
// MaxStore positions, ascending) starts in positions, its length, and
// the seed's true occurrence count; all zero when absent. The bounds
// guards make lookups on a structurally corrupt mapping return "absent"
// instead of panicking; the probe counter bounds the scan on a table
// with no free slots (impossible for a built index, reachable only via
// corruption).
func (ix *LargeIndex) find(m dna.Kmer) (start, stored, total int32) {
	h := mix64(uint64(m))
	p := h >> (64 - ix.partBits)
	lo, hi := ix.slotOff[p], ix.slotOff[p+1]
	size := hi - lo
	if size <= 0 {
		return 0, 0, 0
	}
	mask := uint64(size - 1)
	i := h & mask
	for probes := int64(0); probes < size; probes++ {
		s := lo + int64(i)
		c := ix.counts[s]
		if c <= 0 { // 0 = free slot; negative only via a corrupt file
			return 0, 0, 0
		}
		if ix.keys[s] == uint64(m) {
			stored := int64(c)
			if ms := int64(ix.maxStore); stored > ms {
				stored = ms
			}
			st := int64(ix.starts[s])
			if st < 0 || st+stored > int64(len(ix.positions)) {
				return 0, 0, 0
			}
			return int32(st), int32(stored), c
		}
		i = (i + 1) & mask
	}
	return 0, 0, 0
}

// resolve implements seedSource. A probe is a chain of dependent cache
// misses, so the group first loads every seed's home slot — independent
// loads whose misses overlap — and only then runs the probe loop, which
// finds its lines cached. starts is left out: half a read's seeds (the
// wrong strand) are absent, and fetching their lines too costs more
// than the present seeds' late miss.
func (ix *LargeIndex) resolve(b *CandidateBuf) []int32 {
	for i := range b.seeds {
		h := mix64(uint64(b.seeds[i].m))
		p := h >> (64 - ix.partBits)
		if lo, hi := ix.slotOff[p], ix.slotOff[p+1]; hi > lo {
			s := lo + int64(h&uint64(hi-lo-1))
			b.touched += ix.counts[s] + int32(ix.keys[s])
		}
	}
	for i := range b.seeds {
		s := &b.seeds[i]
		s.lo, s.n, s.total = ix.find(s.m)
	}
	return ix.positions
}

// Lookup returns the stored position sample of the packed k-mer (at
// most MaxStore entries, ascending). The slice aliases the index.
func (ix *LargeIndex) Lookup(m dna.Kmer) []int32 {
	start, stored, _ := ix.find(m)
	return ix.positions[start : start+stored]
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
