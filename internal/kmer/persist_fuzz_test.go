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
		c.keys, c.starts = slices.Clone(ix.keys), slices.Clone(ix.starts)
		c.counts, c.positions = slices.Clone(ix.counts), slices.Clone(ix.positions)
		mutate(&c)
		corpus = append(corpus, EncodeIndex(&c, digest, int64(len(seq))))
	}
	lie(func(c *LargeIndex) { // negative and absurd occurrence counts
		for i := range c.counts {
			if c.counts[i] != 0 {
				c.counts[i] = []int32{-7, math.MaxInt32}[i%2]
			}
		}
	})
	lie(func(c *LargeIndex) { // sample ranges off both ends of positions
		for i := range c.starts {
			c.starts[i] = []int32{-1, int32(len(c.positions)) - 1, math.MaxInt32}[i%3]
		}
	})
	lie(func(c *LargeIndex) { // positions nowhere near the reference
		for i := range c.positions {
			c.positions[i] = int32(rng.Uint32())
		}
	})
	lie(func(c *LargeIndex) { // no free slot to stop a probe, no key to find
		for i := range c.counts {
			c.counts[i], c.keys[i] = 1, ^uint64(0)
		}
	})
	lie(func(c *LargeIndex) { // uncapped samples with counts beyond the array
		c.maxStore = math.MaxInt32
		for i := range c.counts {
			c.counts[i] *= int32(len(c.positions))
		}
	})
	return corpus, seq
}

// TestCorpusImagesQuerySafely runs every image the decoder accepts —
// the lying ones above included — through the group-resolved query path,
// with reads drawn from the indexed sequence so seeds are found.
func TestCorpusImagesQuerySafely(t *testing.T) {
	corpus, seq := fuzzIndexCorpus(t)
	accepted := 0
	var buf CandidateBuf
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
					for _, c := range ix.CandidatesInto(read, opt, &buf) {
						if c.Start < 0 || c.Votes < 1 {
							t.Fatalf("image %d read@%d %+v: candidate %+v", i, at, opt, c)
						}
					}
				}
			}
		}
	}
	if accepted < 6 {
		t.Fatalf("decoder accepted %d corpus images, want the valid one and the five lying ones", accepted)
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
		got.Candidates(read, CandidateOptions{MinVotes: 1, MaxBucket: 100, MaxCandidates: 4})
		got.MemoryBytes()
	})
}
