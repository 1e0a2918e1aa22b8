package snp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/genome"
	"gnumap/internal/lrt"
	"gnumap/internal/obs"
)

// Property (the prescreen theorem, fuzzed): any vector the screen
// skips, run through the full lrt.Test + het-demotion + isSNP chain
// with significance FORCED to pass, must never yield a SNP call. This
// is exactly the conservativeness claim — the screen is valid at every
// significance threshold, so forcing significance is the adversarial
// worst case.
func TestPrescreenSkipImpliesNoCall(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfgs := []Config{
		{Ploidy: lrt.Monoploid},
		{Ploidy: lrt.Diploid},
		{Ploidy: lrt.Diploid, MinHetMinorFraction: 0.4},
		{Ploidy: lrt.Diploid, MinHetMinorFraction: -1},
	}
	for i := range cfgs {
		cfgs[i] = cfgs[i].withDefaults()
	}
	skips := 0
	for trial := 0; trial < 50_000; trial++ {
		cfg := &cfgs[trial%len(cfgs)]
		refBase := dna.Code(rng.Intn(4))
		if trial%17 == 0 {
			refBase = dna.N
		}
		var v genome.Vec
		for k := range v {
			switch rng.Intn(5) {
			case 0:
				// leave zero
			case 1:
				v[k] = float64(rng.Intn(4)) // small integers force ties
			default:
				v[k] = 10 * rng.Float64()
			}
		}
		if refBase.IsConcrete() && rng.Intn(2) == 0 {
			v[dna.Channel(refBase)] += 5 * rng.Float64() // often ref-dominant
		}
		if rng.Intn(4) == 0 {
			v[dna.ChGap] += 5 * rng.Float64() // sometimes gap-dominant
		}
		// Depth summed in the same channel order as the sweep.
		depth := 0.0
		for _, x := range v {
			depth += x
		}
		if !prescreenSkip(v, depth, refBase, cfg) {
			continue
		}
		skips++
		res, err := lrt.Test(v, cfg.Ploidy)
		if err != nil {
			t.Fatalf("screen skipped a vector lrt.Test rejects: %v (%v)", v, err)
		}
		// Mirror CollectRange + FinalizeCalls exactly, with the
		// significance decision replaced by "always pass".
		call := Call{Ref: refBase, Allele: res.Top, Allele2: res.Top, Het: res.Heterozygous}
		if call.Het {
			call.Allele2 = res.Second
			if cfg.MinHetMinorFraction > 0 && res.MinorFraction < cfg.MinHetMinorFraction {
				call.Het = false
				call.Allele2 = call.Allele
			}
		}
		if isSNP(call) {
			t.Fatalf("screen dropped a callable position: v=%v ref=%v ploidy=%v hetFrac=%v -> %+v",
				v, refBase, cfg.Ploidy, cfg.MinHetMinorFraction, call)
		}
	}
	if skips < 5_000 {
		t.Fatalf("vacuous fuzz: only %d/50000 trials skipped", skips)
	}
}

// Invalid vectors must never be screened out: the unscreened sweep
// surfaces lrt.Test's validation error and the screened one must too.
func TestPrescreenKeepsInvalidVectors(t *testing.T) {
	cfg := Config{Ploidy: lrt.Diploid}.withDefaults()
	bad := []genome.Vec{
		{5, -1, 0, 0, 0},
		{5, math.NaN(), 0, 0, 0},
		{5, 0, math.Inf(1), 0, 0},
		{5, 0, 0, math.Inf(-1), 0},
	}
	for _, v := range bad {
		depth := 0.0
		for _, x := range v {
			depth += x
		}
		if prescreenSkip(v, depth, dna.A, &cfg) {
			t.Errorf("screen skipped invalid vector %v", v)
		}
	}
}

// End-to-end identity: under the fixed cutoff (and with the
// significance filter disabled) the screened sweep's call set is
// bit-identical to the exhaustive sweep's, across ploidies and filter
// settings, and the screen actually fires (non-vacuous). Under FDR the
// candidate family itself is redefined (see prescreen.go), so no
// identity is asserted there — serial-vs-parallel FDR identity, where
// both sides screen, lives in parallel_test.go.
func TestPrescreenEndToEndCallIdentity(t *testing.T) {
	ref, acc := bigFixture(t, 40_000, 29)
	cfgs := []Config{
		{Ploidy: lrt.Monoploid},
		{Ploidy: lrt.Diploid},
		{Ploidy: lrt.Diploid, MinHetMinorFraction: 0.4},
		{Ploidy: lrt.Diploid, MinHetMinorFraction: -1},
		{Ploidy: lrt.Diploid, Alpha: -1},
		{Ploidy: lrt.Diploid, MinDepth: -1},
	}
	for _, cfg := range cfgs {
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		got, gotSt, err := CallAll(ref, acc, cfg)
		if err != nil {
			t.Fatalf("%+v: screened: %v", cfg, err)
		}
		raw := cfg
		raw.noPrescreen = true
		raw.Metrics = nil
		want, wantSt, err := CallAll(ref, acc, raw)
		if err != nil {
			t.Fatalf("%+v: exhaustive: %v", cfg, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ploidy=%v hetFrac=%v alpha=%v: screened sweep changed the call set: %d vs %d calls",
				cfg.Ploidy, cfg.MinHetMinorFraction, cfg.Alpha, len(got), len(want))
		}
		// Tested keeps its meaning (depth-passing positions, screened
		// included) and the SNP count matches; Significant legitimately
		// differs (screened positions are no longer candidates).
		if gotSt.Tested != wantSt.Tested || gotSt.SNPs != wantSt.SNPs {
			t.Fatalf("%+v: stats diverged: %+v vs %+v", cfg, gotSt, wantSt)
		}
		// Non-vacuity — except with het demotion disabled (hetFrac < 0),
		// where the diploid screen may only skip zero-minor positions
		// and a noisy fixture legitimately never triggers it.
		if cfg.MinHetMinorFraction >= 0 && reg.Counter("call.prescreened").Value() == 0 {
			t.Fatalf("%+v: vacuous: prescreen skipped nothing", cfg)
		}
	}
}

// The tile sweep must screen identically to the serial one — the
// existing bit-identity property, re-checked on a screened FDR run.
func TestPrescreenSerialParallelIdentical(t *testing.T) {
	ref, acc := bigFixture(t, 50_000, 31)
	cfg := Config{Ploidy: lrt.Diploid, UseFDR: true}
	serial, sst, err := CollectRange(ref, acc, 0, ref.Len(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, pst := tileSweep(t, ref, acc, cfg, 5)
	if !reflect.DeepEqual(serial, parallel) || sst != pst {
		t.Fatalf("parallel screened sweep diverged: %d/%+v vs %d/%+v",
			len(parallel), pst, len(serial), sst)
	}
}
