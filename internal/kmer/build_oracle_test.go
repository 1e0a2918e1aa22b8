package kmer

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gnumap/internal/dna"
)

// newTwoClosure is the direct table's build as it stood before the
// one-roll counting sort: both passes roll the pack left to right
// through forEachKmer's closure, and a cursor array beside offsets
// fills each bucket front to back. New must build exactly its offsets
// and positions.
func newTwoClosure(seq dna.Seq, k int) (*Index, error) {
	if k <= 0 || k > MaxDirectK {
		return nil, fmt.Errorf("kmer: k=%d out of range [1,%d]", k, MaxDirectK)
	}
	nBuckets := 1 << (2 * uint(k))
	offsets := make([]int32, nBuckets+1)
	forEachKmer(seq, k, func(m, _ dna.Kmer, pos int32) {
		offsets[m+1]++
	})
	for i := 1; i <= nBuckets; i++ {
		offsets[i] += offsets[i-1]
	}
	positions := make([]int32, offsets[nBuckets])
	next := make([]int32, nBuckets)
	copy(next, offsets[:nBuckets])
	forEachKmer(seq, k, func(m, _ dna.Kmer, pos int32) {
		positions[next[m]] = pos
		next[m]++
	})
	return &Index{k: k, offsets: offsets, positions: positions, seqLen: len(seq)}, nil
}

// Property: on random sequences with runs of N — lengths below k, equal
// to it and well above it, and every k from 1 to 12 — New builds the
// same offsets and positions as the two-closure build.
func TestNewMatchesTwoClosureBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for k := 1; k <= 12; k++ {
		for _, n := range []int{0, 1, k - 1, k, k + 1, 3 * k, 500, 5000} {
			seq := make(dna.Seq, max(n, 0))
			for i := 0; i < len(seq); i++ {
				seq[i] = dna.Code(rng.Intn(4))
				if rng.Intn(60) == 0 { // an N run of 1..2k bases
					for j := rng.Intn(2 * k); j >= 0 && i < len(seq); j-- {
						seq[i] = dna.N
						i++
					}
				}
			}
			got, err := New(seq, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := newTwoClosure(seq, k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.positions, want.positions) || got.seqLen != want.seqLen {
				t.Fatalf("k=%d n=%d: New differs from the two-closure build", k, n)
			}
		}
	}
}
