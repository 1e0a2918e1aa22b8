package snp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/fasta"
	"gnumap/internal/genome"
	"gnumap/internal/lrt"
)

// The batch-vs-scalar identity harness for the vectorized calling
// sweep (screen_vector.go). The vector path claims bit-identity with
// the scalar per-position loop by construction; these tests enforce it
// empirically across every axis a caller can vary — accumulator mode,
// worker count, significance machinery, and the negative-disables
// config convention — plus lane-exact equivalence of the three
// prescreen kernels (scalar, generic block, AVX2).

// view freezes acc for a test's reads (the accumulator's only read path).
func view(t *testing.T, acc genome.Accumulator) *genome.Frozen {
	t.Helper()
	fz, err := genome.Freeze(acc)
	if err != nil {
		t.Fatal(err)
	}
	return fz
}

// vectorFixture plants pseudo-random evidence on a two-contig
// reference — so the sweep crosses an inter-contig N spacer — backed
// by the requested accumulator mode. Some evidence lands inside the
// spacer to exercise the uncallable-position paths.
func vectorFixture(t *testing.T, mode genome.Mode, length int, seed int64) (*genome.Reference, genome.Accumulator) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	half := length / 2
	mkSeq := func() dna.Seq {
		s := make(dna.Seq, half)
		for i := range s {
			s[i] = dna.Code(rng.Intn(4))
		}
		return s
	}
	ref, err := genome.NewReference([]*fasta.Record{
		{Name: "chrL", Seq: mkSeq()},
		{Name: "chrR", Seq: mkSeq()},
	})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := genome.New(mode, ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	seq := ref.Seq()
	vecFor := func(ch dna.Channel) genome.Vec {
		var v genome.Vec
		for k := range v {
			v[k] = 0.01
		}
		v[ch] = 0.96
		return v
	}
	for pos := 0; pos < ref.Len(); pos += 1 + rng.Intn(6) {
		refCh := dna.Channel(rng.Intn(4))
		if seq[pos].IsConcrete() {
			refCh = dna.Channel(seq[pos])
		}
		altCh := dna.Channel((int(refCh) + 1 + rng.Intn(3)) % 4)
		depth := 1 + rng.Intn(16)
		var v genome.Vec
		switch rng.Intn(5) {
		case 0: // hom alt
			v = vecFor(altCh)
		case 1: // ref confirming
			v = vecFor(refCh)
		case 2: // het: half ref, half alt
			half := vecFor(refCh)
			for i := 0; i < depth/2; i++ {
				acc.AddRange(pos, []genome.Vec{half}, 1)
			}
			v = vecFor(altCh)
			depth -= depth / 2
		case 3: // gap-heavy (indel signal)
			v = genome.Vec{0.05, 0.05, 0.05, 0.05, 0.8}
		default: // noisy
			v = genome.Vec{0.3, 0.3, 0.2, 0.15, 0.05}
		}
		for i := 0; i < depth; i++ {
			acc.AddRange(pos, []genome.Vec{v}, 1)
		}
	}
	return ref, acc
}

// Tentpole harness: the vectorized tile sweep must be DeepEqual-identical
// to the scalar one — candidates, calls, and stats — across
// accumulator modes, 1..8 call workers, fixed-cutoff and FDR
// finalization, and the negative-disables configs.
func TestVectorSweepIdentityRandomized(t *testing.T) {
	const length = 20_000
	configs := []struct {
		name string
		cfg  Config
	}{
		{"diploid-fixed", Config{Ploidy: lrt.Diploid}},
		{"diploid-fdr", Config{Ploidy: lrt.Diploid, UseFDR: true}},
		{"monoploid-fixed", Config{Ploidy: lrt.Monoploid}},
		{"alpha-disabled", Config{Ploidy: lrt.Diploid, Alpha: -1}},
		{"mindepth-disabled", Config{Ploidy: lrt.Diploid, MinDepth: -1, UseFDR: true}},
		{"het-disabled", Config{Ploidy: lrt.Diploid, MinHetMinorFraction: -1}},
	}
	seed := int64(4000)
	for _, mode := range []genome.Mode{genome.Norm, genome.CharDisc, genome.CentDisc} {
		// Discrete modes take the scalar path either way (vectorEligible);
		// run a reduced matrix there — the interesting surface is NORM.
		cfgs, maxWorkers := configs, 8
		if mode != genome.Norm {
			cfgs, maxWorkers = configs[:2], 4
		}
		seed++
		ref, acc := vectorFixture(t, mode, length, seed)
		for _, tc := range cfgs {
			scalar := tc.cfg
			wantCands, wantSt, err := collectRange(ref, acc, 0, 0, ref.Len(), scalar, false)
			if err != nil {
				t.Fatal(err)
			}
			wantCalls, wantFSt, err := FinalizeCalls(wantCands, scalar)
			if err != nil {
				t.Fatal(err)
			}
			if mode == genome.Norm && (len(wantCands) == 0 || wantSt.Tested == 0) {
				t.Fatalf("%v/%s: fixture produced no candidates; test is vacuous", mode, tc.name)
			}
			for workers := 1; workers <= maxWorkers; workers++ {
				vec := tc.cfg
				vec.CallWorkers = workers
				name := fmt.Sprintf("%v/%s/w%d", mode, tc.name, workers)
				gotCands, gotSt := tileSweep(t, ref, acc, 0, vec)
				if !reflect.DeepEqual(gotCands, wantCands) {
					t.Fatalf("%s: candidates diverge from scalar (%d vs %d)", name, len(gotCands), len(wantCands))
				}
				if !reflect.DeepEqual(gotSt, wantSt) {
					t.Fatalf("%s: stats %+v, want %+v", name, gotSt, wantSt)
				}
				gotCalls, gotFSt, err := FinalizeCalls(gotCands, vec)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(gotCalls, wantCalls) || !reflect.DeepEqual(gotFSt, wantFSt) {
					t.Fatalf("%s: finalized calls diverge from scalar", name)
				}
			}
		}
	}
}

// scalarLaneMasks classifies one 8-position block with the scalar
// sweep's own code (fz.Vector, depth sum, prescreenSkip), producing
// the tested/keep/valid bytes the kernels must reproduce exactly.
func scalarLaneMasks(fz *genome.Frozen, start int, refc []dna.Code, cfg *Config) (tested, keep, valid uint8) {
	for lane := 0; lane < screenLanes; lane++ {
		v := fz.Vector(start + lane)
		var depth float64
		for _, x := range v {
			depth += x
		}
		lvalid := true
		for _, x := range v {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				lvalid = false
			}
		}
		bit := uint8(1) << lane
		if lvalid {
			valid |= bit
		}
		if depth < cfg.MinDepth {
			continue
		}
		tested |= bit
		if !prescreenSkip(v, depth, refc[lane], cfg) {
			keep |= bit
		}
	}
	return tested, keep, valid
}

// randomScreenAcc fills a NORM accumulator with adversarial lane
// values: ties, zeros, signed zeros, sub-minimum depths, and invalid
// (negative/NaN/Inf) channels.
func randomScreenAcc(t *testing.T, rng *rand.Rand, length int) *genome.Frozen {
	t.Helper()
	acc, err := genome.New(genome.Norm, length)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < length; pos++ {
		var v genome.Vec
		switch rng.Intn(8) {
		case 0: // all zero
		case 1: // small-int ties
			for k := range v {
				v[k] = float64(rng.Intn(3))
			}
		case 2: // ref/gap dominant
			v = genome.Vec{8, 0.5, 0.5, 0.5, 0.25}
		case 3: // gap dominant
			v = genome.Vec{0.5, 0.5, 0.5, 0.5, 9}
		case 4: // thin coverage (below MinDepth)
			v = genome.Vec{0.25, 0.25, 0, 0, 0}
		case 5: // invalid channel
			bad := []float64{-1, math.NaN(), math.Inf(1)}[rng.Intn(3)]
			for k := range v {
				v[k] = 2 * rng.Float64()
			}
			v[rng.Intn(len(v))] = bad
		default:
			for k := range v {
				v[k] = 20 * rng.Float64()
			}
		}
		acc.AddRange(pos, []genome.Vec{v}, 1)
	}
	return view(t, acc)
}

// The block kernels must classify every lane exactly as the scalar
// code does — and the AVX2 kernel must be byte-identical to the
// generic loop whenever the host dispatches it.
func TestVectorKernelMatchesScalarScreen(t *testing.T) {
	const blocks = 256
	const length = blocks * screenLanes
	rng := rand.New(rand.NewSource(77))
	t.Logf("dispatching kernel: %s", VectorKernel())
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"diploid", Config{Ploidy: lrt.Diploid}},
		{"monoploid", Config{Ploidy: lrt.Monoploid}},
		{"het-off", Config{Ploidy: lrt.Diploid, MinHetMinorFraction: -1}},
		{"depth-off", Config{Ploidy: lrt.Diploid, MinDepth: -1}},
	} {
		cfg := tc.cfg.withDefaults()
		fz := randomScreenAcc(t, rng, length)
		planes, ok := fz.PlaneWindow(0, length)
		if !ok {
			t.Fatal("NORM freeze lost its planes")
		}
		refc := make([]dna.Code, length)
		for i := range refc {
			refc[i] = dna.Code(rng.Intn(5)) // includes N references
		}
		diploid := cfg.Ploidy == lrt.Diploid
		generic := make([]uint8, blocks*screenMaskBytes)
		prescreenBlocksGeneric(&planes, 0, refc, generic, blocks, cfg.MinDepth, cfg.MinHetMinorFraction, diploid)
		for b := 0; b < blocks; b++ {
			wantT, wantK, wantV := scalarLaneMasks(fz, b*screenLanes, refc[b*screenLanes:], &cfg)
			gotT := generic[b*screenMaskBytes+0]
			gotK := generic[b*screenMaskBytes+1]
			gotV := generic[b*screenMaskBytes+2]
			if gotT != wantT || gotK != wantK || gotV != wantV {
				t.Fatalf("%s block %d: generic masks (%08b,%08b,%08b), scalar (%08b,%08b,%08b)",
					tc.name, b, gotT, gotK, gotV, wantT, wantK, wantV)
			}
		}
		simd := make([]uint8, blocks*screenMaskBytes)
		if prescreenBlocksSIMD(&planes, 0, refc, simd, blocks, cfg.MinDepth, cfg.MinHetMinorFraction, diploid) {
			if !reflect.DeepEqual(simd, generic) {
				t.Fatalf("%s: AVX2 kernel masks diverge from the generic loop", tc.name)
			}
		}
	}
}

// A vector with invalid mass must surface the identical lrt validation
// error — same message, same partial Stats, nil candidates — from both
// sweeps.
func TestVectorSweepErrorIdentity(t *testing.T) {
	const length = 4096
	ref, acc := vectorFixture(t, genome.Norm, length, 9)
	// Plant a negative channel with enough depth to pass every filter.
	acc.AddRange(1234, []genome.Vec{{6, 6, -3, 0, 0}}, 1)
	scalar := Config{Ploidy: lrt.Diploid}
	wantCands, wantSt, wantErr := collectRange(ref, acc, 0, 0, ref.Len(), scalar, false)
	if wantErr == nil {
		t.Fatal("scalar sweep accepted a negative channel")
	}
	if wantCands != nil {
		t.Fatal("scalar sweep returned candidates alongside its error")
	}
	gotCands, gotSt, gotErr := CollectRange(ref, acc, 0, 0, ref.Len(), Config{Ploidy: lrt.Diploid})
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("vector error %v, want %v", gotErr, wantErr)
	}
	if gotCands != nil {
		t.Fatal("vector sweep returned candidates alongside its error")
	}
	if !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatalf("vector error stats %+v, want %+v", gotSt, wantSt)
	}
}

// Sub-block windows, unaligned bounds, and non-zero offsets must hit
// the scalar tail path and still match exactly.
func TestVectorSweepUnalignedWindows(t *testing.T) {
	const length = 8192
	ref, acc := vectorFixture(t, genome.Norm, length, 11)
	cfg := Config{Ploidy: lrt.Diploid, UseFDR: true}
	for _, w := range [][2]int{{0, 5}, {3, 11}, {100, 1003}, {8, 8}, {4091, ref.Len()}, {0, ref.Len() - 1}} {
		wantCands, wantSt, err := collectRange(ref, acc, 0, w[0], w[1], cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		gotCands, gotSt, err := CollectRange(ref, acc, 0, w[0], w[1], cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotCands, wantCands) || !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("window %v: vector sweep diverges (%d/%+v vs %d/%+v)",
				w, len(gotCands), gotSt, len(wantCands), wantSt)
		}
	}
}
