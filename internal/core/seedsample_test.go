package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/pwm"
	"gnumap/internal/simulate"
)

// requeryCheck wraps an engine's seed-index source: every read whose
// sampled answer did not stand must come out with exactly the candidate
// list that an every-offset engine's source (oracle) returns for it.
type requeryCheck struct {
	oracle            *mapper
	requeried, differ int
}

func newRequeryCheck(t *testing.T, ref *genome.Reference) *requeryCheck {
	t.Helper()
	e, err := NewEngine(ref, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.testEveryOffset = true
	m, err := e.getMapper()
	if err != nil {
		t.Fatal(err)
	}
	return &requeryCheck{oracle: m}
}

// set installs the checked source; the run must have metrics on and one
// worker.
func (c *requeryCheck) set(e *Engine) {
	e.source = func(m *mapper, fwd *pwm.Matrix) []scoredCand {
		before := m.met.requeried.Value()
		got := m.seed(fwd)
		if m.met.requeried.Value() != before {
			c.requeried++
			if !slices.Equal(got, c.oracle.seed(fwd)) {
				c.differ++
			}
		}
		return got
	}
}

// massMoved is half the L1 distance between two NORM accumulators'
// channel vectors, summed over positions: the posterior mass that one
// run put somewhere the other did not.
func massMoved(t *testing.T, a, b genome.Accumulator) float64 {
	t.Helper()
	fa, err := genome.Freeze(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := genome.Freeze(b)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0.0
	for pos := range fa.Len() {
		va, vb := fa.Vector(pos), fb.Vector(pos)
		for ch := range va {
			moved += math.Abs(va[ch] - vb[ch])
		}
	}
	return moved / 2
}

// repeatFreeDataset is a 400 kbp repeat-free genome of which the first
// 40 kbp, with planted SNPs, is sequenced at 12x: the seed hits of its
// reads are the true location's plus the random ones a k=10 table
// yields over the whole reference.
func repeatFreeDataset(t *testing.T) (*genome.Reference, []*fastq.Read) {
	t.Helper()
	g, err := simulate.Genome(simulate.GenomeConfig{Length: 400000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	target := g[:40000]
	cat, err := simulate.Catalog(target, simulate.CatalogConfig{Count: 40, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ind, err := simulate.Mutate(target, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := simulate.Reads(ind, simulate.ReadConfig{Length: 62, Coverage: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := genome.NewSingleContig("unique", g)
	if err != nil {
		t.Fatal(err)
	}
	return ref, reads
}

// callKey is what makes two calls the same call.
type callKey struct {
	pos             int
	allele, allele2 dna.Channel
	het             bool
}

func callKeys(r oneWorkerRun) map[callKey]bool {
	keys := map[callKey]bool{}
	for _, c := range r.calls {
		keys[callKey{c.GlobalPos, c.Allele, c.Allele2, c.Het}] = true
	}
	return keys
}

// measuredMassPerRead is the NORM mass the sampled query moved per read,
// measured on each dataset of TestSampledSeedsLoseNoCalls when the
// stride was chosen: none — every dataset's accumulator came out equal
// to the every-offset run's.
const measuredMassPerRead = 0.0

// TestSampledSeedsLoseNoCalls is the sampled seed query's row of the
// heuristic-loss table. Each dataset is mapped with sampling on and with
// every read queried at every offset (the oracle): no call may be lost
// or gained, Mapped must be equal and locations within 0.1%, the NORM
// mass moved per read may be at most twice the value measured when the
// rule was chosen, and every re-queried read must use exactly the
// oracle's candidate list. On the repeat-free genome sampling must vote
// at least 2.5x fewer seed hits. One read per branch of the keep rule
// checks that each branch is taken as stated.
func TestSampledSeedsLoseNoCalls(t *testing.T) {
	type dataset struct {
		name       string
		build      func(*testing.T) (*genome.Reference, []*fastq.Read)
		repeatFree bool
	}
	sets := []dataset{{"repeat-free", repeatFreeDataset, true}}
	for _, seed := range []int64{3, 7, 11, 13} {
		sets = append(sets, dataset{fmt.Sprintf("repeats-seed%d", seed), func(t *testing.T) (*genome.Reference, []*fastq.Read) {
			return repeatDataset(t, seed)
		}, false})
	}
	for _, ds := range sets {
		t.Run(ds.name, func(t *testing.T) {
			t.Parallel()
			ref, reads := ds.build(t)
			check := newRequeryCheck(t, ref)
			on := mapWith(t, ref, reads, check.set)
			off := mapWith(t, ref, reads, func(e *Engine) { e.testEveryOffset = true })

			onCalls, offCalls := callKeys(on), callKeys(off)
			for k := range offCalls {
				if !onCalls[k] {
					t.Errorf("call lost: %+v", k)
				}
			}
			for k := range onCalls {
				if !offCalls[k] {
					t.Errorf("call gained: %+v", k)
				}
			}
			if len(offCalls) == 0 {
				t.Fatal("no calls: the comparison is vacuous")
			}
			if on.stats.Mapped != off.stats.Mapped {
				t.Errorf("Mapped %d, every offset %d", on.stats.Mapped, off.stats.Mapped)
			}
			if d := math.Abs(float64(on.stats.Locations - off.stats.Locations)); d > 0.001*float64(off.stats.Locations) {
				t.Errorf("Locations %d, every offset %d: more than 0.1%% apart", on.stats.Locations, off.stats.Locations)
			}
			perRead := massMoved(t, on.acc, off.acc) / float64(len(reads))
			if perRead > 2*measuredMassPerRead {
				t.Errorf("NORM mass moved %.3g per read, more than twice the measured %.3g", perRead, measuredMassPerRead)
			}
			rq := on.counters["map.seed.requeried"]
			if int64(check.requeried) != rq || rq == 0 || check.differ != 0 {
				t.Errorf("%d reads re-queried (counter %d), %d with a list unlike the every-offset query's", check.requeried, rq, check.differ)
			}
			if off.counters["map.seed.requeried"] != 0 {
				t.Errorf("every-offset run re-queried %d reads", off.counters["map.seed.requeried"])
			}
			hitsOn, hitsOff := on.counters["map.seed.hits"], off.counters["map.seed.hits"]
			if ds.repeatFree && 5*hitsOn > 2*hitsOff {
				t.Errorf("map.seed.hits %d sampled, %d every offset: less than 2.5x fewer", hitsOn, hitsOff)
			}
			t.Logf("%d reads, %d re-queried; locations %d / %d; hits %d / %d; mass moved %.4g per read; %d calls",
				len(reads), rq, on.stats.Locations, off.stats.Locations, hitsOn, hitsOff, perRead, len(offCalls))
		})
	}
	t.Run("branches", func(t *testing.T) {
		t.Parallel()
		testSampledSeedBranches(t)
	})
}

// testSampledSeedBranches maps one read per branch of the keep rule on
// a 20 kbp genome with one 300-base segment copied: a unique read (its
// sampled answer stands), a read inside the copy (two candidates: it
// is re-queried), a read that is mostly junk (one candidate, but with
// fewer votes than half the sampled seeds: re-queried) and a read
// shorter than 2·K (queried once, at every offset).
func testSampledSeedBranches(t *testing.T) {
	g, err := simulate.Genome(simulate.GenomeConfig{Length: 20000, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	copy(g[12000:12300], g[3000:3300])
	junk, err := simulate.Genome(simulate.GenomeConfig{Length: 40, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := genome.NewSingleContig("branches", g)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ref, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := eng.getMapper()
	if err != nil {
		t.Fatal(err)
	}
	// branch names the branch of the keep rule a read's first query takes.
	branch := func(stride int, kept []scoredCand, seeds int64) string {
		switch {
		case stride == 1:
			return "short"
		case len(kept) != 1:
			return "two-copy"
		case 2*int64(kept[0].cand.Votes) < seeds:
			return "low-vote"
		}
		return "unique"
	}
	k := eng.cfg.K
	for _, c := range []struct {
		name      string
		rd        *fastq.Read
		requeried int64
	}{
		{"unique", qualRead("unique", g[1000:1062]), 0},
		{"two-copy", qualRead("two-copy", g[3100:3162]), 1},
		{"low-vote", qualRead("low-vote", append(junk.Clone(), g[6000:6022]...)), 1},
		{"short", qualRead("short", g[8000:8000+2*k-1]), 0},
	} {
		var p pwm.Matrix
		if err := eng.fillPWM(&p, c.rd); err != nil {
			t.Fatal(err)
		}
		opts := eng.seedOptions(p.Len())
		kept := m.vote(p.Calls(), opts)
		if b := branch(opts.Stride, kept, m.candBuf[0].Stats.Seeds); b != c.name {
			t.Errorf("%s: stride %d, candidates %v of %d seeds take the %s branch", c.name, opts.Stride, kept, m.candBuf[0].Stats.Seeds, b)
			continue
		}
		reads := []*fastq.Read{c.rd}
		check := newRequeryCheck(t, ref)
		on := mapWith(t, ref, reads, check.set)
		off := mapWith(t, ref, reads, func(e *Engine) { e.testEveryOffset = true })
		if rq := on.counters["map.seed.requeried"]; rq != c.requeried || int64(check.requeried) != rq || check.differ != 0 {
			t.Errorf("%s: map.seed.requeried %d (want %d), %d checked, %d unlike the every-offset list", c.name, rq, c.requeried, check.requeried, check.differ)
		}
		if on.stats.Mapped != 1 || off.stats.Mapped != 1 || on.stats.Locations != off.stats.Locations {
			t.Errorf("%s: mapped %+v, every offset %+v", c.name, on.stats, off.stats)
		}
		// Hits count both queries: a re-queried read votes more than the
		// every-offset run, a kept one fewer, a short one the same.
		hitsOn, hitsOff := on.counters["map.seed.hits"], off.counters["map.seed.hits"]
		if want := map[string]int{"unique": -1, "two-copy": 1, "low-vote": 1, "short": 0}[c.name]; cmp.Compare(hitsOn, hitsOff) != want {
			t.Errorf("%s: %d seed hits, every offset %d", c.name, hitsOn, hitsOff)
		}
	}
}
