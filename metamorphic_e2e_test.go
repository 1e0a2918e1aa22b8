package gnumap

import (
	"math/rand"
	"slices"
	"testing"

	"gnumap/internal/dna"
)

// callKey is what a call asserts about the sample: where, against which
// reference base, which alleles, and the zygosity.
type callKey struct {
	contig          string
	pos             int
	ref             dna.Code
	allele, allele2 dna.Channel
	het             bool
}

// TestShuffledReadsSameCalls is the read-order metamorphic property: the
// paper's accumulation is a sum over reads, so presenting the same reads
// in a seeded random order must call the same SNPs (contig, position,
// reference base, alleles, zygosity) as source order on one worker.
func TestShuffledReadsSameCalls(t *testing.T) {
	ds := dataset(t)
	calls := func(reads []*Read) []callKey {
		t.Helper()
		p, err := NewPipeline(ds.Reference, Options{Engine: EngineConfig{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.MapReads(reads); err != nil {
			t.Fatal(err)
		}
		cs, _, err := p.Call()
		if err != nil {
			t.Fatal(err)
		}
		var keys []callKey
		for _, c := range cs {
			keys = append(keys, callKey{c.Contig, c.Pos, c.Ref, c.Allele, c.Allele2, c.Het})
		}
		return keys
	}
	want := calls(ds.Reads)
	if len(want) == 0 {
		t.Fatal("source order calls nothing")
	}
	shuffled := slices.Clone(ds.Reads)
	rand.New(rand.NewSource(11)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if got := calls(shuffled); !slices.Equal(got, want) {
		t.Errorf("shuffled reads call %v, source order %v", got, want)
	}
}
