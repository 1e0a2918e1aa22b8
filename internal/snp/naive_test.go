package snp

import (
	"math/rand"
	"reflect"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/genome"
	"gnumap/internal/lrt"
)

// The naive caller of the ablation table is the LRT caller with its
// significance filter off (Alpha < 0), monoploid. This pins that it
// calls exactly what the plurality rule defines.

// naiveCall is a call reduced to what the plurality rule decides.
type naiveCall struct {
	Pos    int
	Allele dna.Channel
}

// pluralityOracle is the naive caller's definition, written out: a
// position of depth >= minDepth is called when its top channel (the
// lowest index among exact ties) is neither the reference base, the gap
// channel, nor a call at an N reference base.
func pluralityOracle(t *testing.T, ref *genome.Reference, acc genome.Accumulator, minDepth float64) []naiveCall {
	t.Helper()
	fz := view(t, acc)
	var calls []naiveCall
	for pos := 0; pos < ref.Len(); pos++ {
		v := fz.Vector(pos)
		depth, best := 0.0, 0
		for k, x := range v {
			depth += x
			if x > v[best] {
				best = k
			}
		}
		refBase, err := ref.Base(pos)
		if err != nil {
			t.Fatal(err)
		}
		if depth < minDepth || !refBase.IsConcrete() || best == int(refBase) || dna.Channel(best) == dna.ChGap {
			continue
		}
		calls = append(calls, naiveCall{pos, dna.Channel(best)})
	}
	return calls
}

// randomNaiveFixture builds a reference with scattered N bases and an
// accumulator whose positions hold exact channel ties, gap-dominant
// evidence, depths just below, at and just above 2, and random mass.
func randomNaiveFixture(t *testing.T, rng *rand.Rand, mode genome.Mode, length int) (*genome.Reference, genome.Accumulator) {
	t.Helper()
	seq := make(dna.Seq, length)
	for i := range seq {
		seq[i] = dna.Code(rng.Intn(4))
		if rng.Intn(10) == 0 {
			seq[i] = dna.N
		}
	}
	ref, err := genome.NewSingleContig("chrP", seq)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := genome.New(mode, length)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < length; pos++ {
		var v genome.Vec
		a, b := rng.Intn(5), rng.Intn(4)
		switch rng.Intn(6) {
		case 0: // exact ties between small integer masses
			for k := range v {
				v[k] = float64(rng.Intn(3))
			}
		case 1: // gap-dominant
			v = genome.Vec{0.5, 0.5, 0.5, 0.5, 4}
			v[b] = 3
		case 2: // just below depth 2
			v[a], v[b] = 1.5, 0.49
		case 3: // exactly depth 2, a tie when a != b
			v[a] += 1
			v[b] += 1
		case 4: // just above depth 2
			v[a], v[b] = 1.5, 0.51
		default:
			for k := range v {
				v[k] = 6 * rng.Float64()
			}
		}
		acc.AddRange(pos, []genome.Vec{v}, 1)
	}
	return ref, acc
}

func TestNaiveCallerIsPluralityVote(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, mode := range []genome.Mode{genome.Norm, genome.CharDisc} {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				ref, acc := randomNaiveFixture(t, rng, mode, 3_000+rng.Intn(500))
				calls, _, err := CallAll(ref, acc, Config{Ploidy: lrt.Monoploid, Alpha: -1})
				if err != nil {
					t.Fatal(err)
				}
				var got []naiveCall
				for _, c := range calls {
					if c.Het || c.Allele2 != c.Allele {
						t.Fatalf("%v seed %d: monoploid call %+v is not homozygous", mode, seed, c)
					}
					got = append(got, naiveCall{c.GlobalPos, c.Allele})
				}
				want := pluralityOracle(t, ref, acc, Config{}.withDefaults().MinDepth)
				if len(want) == 0 {
					t.Fatalf("%v seed %d: fixture produced no plurality calls", mode, seed)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v seed %d: %d calls, oracle %d\n got %v\nwant %v", mode, seed, len(got), len(want), got, want)
				}
			}
		}
	})
}
