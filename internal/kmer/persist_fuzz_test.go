package kmer

import (
	"crypto/sha256"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gnumap/internal/dna"
)

// fuzzIndexCorpus is FuzzDecodeIndex's seed corpus: a valid image, the
// malformed ones the decoder must type (the first eight; go test names
// them seed#0-7), then images whose sections lie but whose CRCs were
// computed over the lies — what a bug in a writer, not a bit flip,
// would leave behind. The decoder accepts those; queries must degrade
// to "absent" or garbage votes, never panic or hang.
func fuzzIndexCorpus(tb testing.TB) (corpus [][]byte, seq dna.Seq) {
	rng := rand.New(rand.NewSource(55))
	seq = randSeq(rng, 600, 0.01)
	// Records to lie about: a unit repeated on both strands and a poly-T
	// run past MaxStore; the rest of the classes occur once, in a slot.
	unit := seq[40:80].Clone()
	copy(seq[300:], unit)
	copy(seq[450:], unit.ReverseComplement())
	for i := 200; i < 240; i++ {
		seq[i] = dna.T
	}
	ix, err := NewLargeWith(seq, 18, LargeConfig{MaxStore: 4})
	if err != nil {
		tb.Fatal(err)
	}
	digest := sha256.Sum256([]byte("fuzz-reference"))
	img := EncodeIndex(ix, digest, int64(len(seq)))
	flip := append([]byte(nil), img...)
	flip[ixPage+9] ^= 0x40
	shift := append([]byte(nil), img...)
	shift[9] = 0x02 // version field
	corpus = [][]byte{img, img[:len(img)-3], img[:ixPage], img[:50], {}, []byte("GNUMAPIX"), flip, shift}

	lie := func(mutate func(c *LargeIndex)) {
		c := *ix
		c.slots, c.recs = slices.Clone(ix.slots), slices.Clone(ix.recs)
		mutate(&c)
		corpus = append(corpus, EncodeIndex(&c, digest, int64(len(seq))))
	}
	// entries calls fn with each occupied slot's entry.
	entries := func(c *LargeIndex, fn func(i int, entry *uint64)) {
		for s := 1; s < len(c.slots); s += 2 {
			if c.slots[s] != 0 {
				fn(s/2, &c.slots[s])
			}
		}
	}
	lie(func(c *LargeIndex) { // negative and absurd record counts
		entries(c, func(i int, e *uint64) {
			if at := *e >> 32; *e&3 == slotRec {
				c.recs[at+uint64(i%2)] = []int32{-7, math.MaxInt32}[i%2]
			}
		})
	})
	lie(func(c *LargeIndex) { // records and inline positions off the ends
		entries(c, func(i int, e *uint64) {
			kind := *e & 3
			if kind == slotRec {
				*e = []uint64{uint64(len(c.recs)) - 1, uint64(len(c.recs)), math.MaxUint32}[i%3]<<32 | kind
			} else {
				*e = []uint64{uint64(c.seqLen - c.k + 1), uint64(c.seqLen), math.MaxUint32}[i%3]<<32 | kind
			}
		})
	})
	lie(func(c *LargeIndex) { // record words nowhere near the reference
		for i := range c.recs {
			c.recs[i] = int32(rng.Uint32())
		}
	})
	lie(func(c *LargeIndex) { // no free slot to stop a probe, no key to find
		for s := 0; s < len(c.slots); s += 2 {
			c.slots[s], c.slots[s+1] = ^uint64(0), slotFwd
		}
	})
	lie(func(c *LargeIndex) { // uncapped samples with counts beyond the array
		c.maxStore = math.MaxInt32
		entries(c, func(_ int, e *uint64) {
			if at := *e >> 32; *e&3 == slotRec {
				c.recs[at] *= int32(len(c.recs))
				c.recs[at+1] += int32(len(c.recs))
			}
		})
	})
	lie(func(c *LargeIndex) { // entries of no kind
		entries(c, func(_ int, e *uint64) { *e &^= 3 })
	})
	return corpus, seq
}

// TestCorpusImagesQuerySafely runs every image the decoder accepts —
// the lying ones above included — through the both-strand query path,
// with reads drawn from the indexed sequence so seeds are found.
func TestCorpusImagesQuerySafely(t *testing.T) {
	corpus, seq := fuzzIndexCorpus(t)
	accepted := 0
	var buf, rbuf CandidateBuf
	for i, img := range corpus {
		ix, err := DecodeIndex(img)
		if err != nil {
			continue
		}
		accepted++
		for at := 0; at+62 <= len(seq); at += 31 {
			for _, opt := range []CandidateOptions{
				{}, {MinVotes: 2, MaxBucket: 100, MaxCandidates: 4, Slack: 2}, {MaxBucket: 1, Slack: 4},
			} {
				for _, read := range []dna.Seq{seq[at : at+62], seq[at : at+62].ReverseComplement()} {
					f, r := ix.CandidatesBothInto(read, opt, &buf, &rbuf)
					for _, c := range append(slices.Clip(f), r...) {
						if c.Start < 0 || c.Votes < 1 {
							t.Fatalf("image %d read@%d %+v: candidate %+v", i, at, opt, c)
						}
					}
				}
			}
		}
	}
	if accepted < 7 {
		t.Fatalf("decoder accepted %d corpus images, want the valid one and the six lying ones", accepted)
	}
}

// FuzzDecodeIndex: whatever bytes arrive, DecodeIndex must either
// return an index that survives lookups and candidate generation, or an
// error wrapping exactly one of the typed sentinels — never a panic,
// never an unclassified failure. Mirrors ckpt.FuzzDecode.
func FuzzDecodeIndex(f *testing.F) {
	corpus, _ := fuzzIndexCorpus(f)
	for _, img := range corpus {
		f.Add(img)
	}

	sentinels := []error{ErrNotIndex, ErrVersion, ErrTruncated, ErrChecksum, ErrCorrupt, ErrRefMismatch}
	read := randSeq(rand.New(rand.NewSource(2)), 40, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeIndex(data)
		if err != nil {
			for _, s := range sentinels {
				if errors.Is(err, s) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		// A decode that succeeds must be safe to query.
		for _, m := range []dna.Kmer{0, 1, dna.Kmer(1)<<35 - 1} {
			got.Lookup(m)
		}
		opt := CandidateOptions{MinVotes: 1, MaxBucket: 100, MaxCandidates: 4}
		got.Candidates(read, opt)
		got.CandidatesBothInto(read, opt, &CandidateBuf{}, &CandidateBuf{})
		got.MemoryBytes()
	})
}
