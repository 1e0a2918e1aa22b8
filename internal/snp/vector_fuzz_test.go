package snp

import (
	"encoding/binary"
	"math"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/genome"
	"gnumap/internal/lrt"
)

// fuzzBlockBytes encodes one 8-lane screen block for the fuzzer: 8
// lanes × 5 float32 channel values, 8 reference code bytes, one config
// byte (bit 0 diploid, bit 1 disables the het filter, bit 2 disables
// the depth filter).
const fuzzBlockBytes = screenLanes*dna.NumChannels*4 + screenLanes + 1

// encodeFuzzBlock packs lane vectors, codes, and a config byte into
// the fuzz input format; used to seed the corpus with the scalar
// prescreen property test's vector shapes.
func encodeFuzzBlock(lanes [screenLanes][dna.NumChannels]float32, codes [screenLanes]byte, cfgBits byte) []byte {
	data := make([]byte, 0, fuzzBlockBytes)
	for lane := range lanes {
		for _, v := range lanes[lane] {
			data = binary.LittleEndian.AppendUint32(data, math.Float32bits(v))
		}
	}
	data = append(data, codes[:]...)
	return append(data, cfgBits)
}

// FuzzPrescreenVector drives one arbitrary 8-lane block through the
// scalar prescreen, the generic block kernel, and (when dispatched)
// the AVX2 kernel, asserting lane-exact mask equality — and, as a
// separately stated direction, that the vectorized screen never skips
// a position the scalar screen keeps: a vector-side false "keep" only
// costs an extra lrt.Test, but a false "skip" would silently change
// the tested family.
func FuzzPrescreenVector(f *testing.F) {
	// Corpus: the scalar prescreen property test's trial shapes —
	// zeros, small-integer ties, ref-dominant, gap-dominant, invalid
	// channels, thin coverage — plus N references and signed zeros.
	flat := func(x float32) (v [dna.NumChannels]float32) {
		for k := range v {
			v[k] = x
		}
		return v
	}
	var zeros [screenLanes][dna.NumChannels]float32
	acgt := [screenLanes]byte{0, 1, 2, 3, 0, 1, 2, 3}
	f.Add(encodeFuzzBlock(zeros, acgt, 1))
	f.Add(encodeFuzzBlock([screenLanes][dna.NumChannels]float32{
		flat(1), flat(2), {1, 2, 1, 2, 0}, {2, 2, 2, 2, 2},
		{8, 0.5, 0.5, 0.5, 0.25}, {0.5, 8, 0.5, 0.5, 0.25},
		{0.5, 0.5, 0.5, 0.5, 9}, {0.25, 0.25, 0, 0, 0},
	}, acgt, 1))
	f.Add(encodeFuzzBlock([screenLanes][dna.NumChannels]float32{
		{float32(math.NaN()), 1, 1, 1, 1}, {-1, 2, 2, 2, 2},
		{float32(math.Inf(1)), 1, 1, 1, 1}, {1, 1, 1, 1, float32(math.Inf(-1))},
		{float32(math.Copysign(0, -1)), 0, 0, 0, 0}, flat(0.1),
		{3, 1, 0.74, 0, 0}, {3, 1, 0.76, 0, 0},
	}, [screenLanes]byte{4, 0, 4, 1, 2, 3, 0, 0}, 1))
	f.Add(encodeFuzzBlock([screenLanes][dna.NumChannels]float32{
		flat(1), flat(1), flat(1), flat(1), flat(1), flat(1), flat(1), flat(1),
	}, [screenLanes]byte{4, 4, 4, 4, 7, 9, 255, 0}, 0))
	f.Add(encodeFuzzBlock(zeros, acgt, 2))
	f.Add(encodeFuzzBlock(zeros, acgt, 4))
	f.Add(encodeFuzzBlock(zeros, acgt, 7))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzBlockBytes {
			t.Skip()
		}
		cfg := Config{}
		cfgBits := data[fuzzBlockBytes-1]
		if cfgBits&1 != 0 {
			cfg.Ploidy = lrt.Diploid
		}
		if cfgBits&2 != 0 {
			cfg.MinHetMinorFraction = -1
		}
		if cfgBits&4 != 0 {
			cfg.MinDepth = -1
		}
		cfg = cfg.withDefaults()

		var planes [dna.NumChannels][]float32
		for k := range planes {
			planes[k] = make([]float32, screenLanes)
		}
		for lane := 0; lane < screenLanes; lane++ {
			for k := 0; k < dna.NumChannels; k++ {
				bits := binary.LittleEndian.Uint32(data[(lane*dna.NumChannels+k)*4:])
				planes[k][lane] = math.Float32frombits(bits)
			}
		}
		refc := make([]dna.Code, screenLanes)
		for lane := range refc {
			refc[lane] = dna.Code(data[screenLanes*dna.NumChannels*4+lane])
		}

		// The scalar sweep's per-lane decisions, from its own code path.
		var wantT, wantK uint8
		for lane := 0; lane < screenLanes; lane++ {
			var v genome.Vec
			for k := 0; k < dna.NumChannels; k++ {
				v[k] = float64(planes[k][lane])
			}
			var depth float64
			for _, x := range v {
				depth += x
			}
			if depth < cfg.MinDepth {
				continue
			}
			wantT |= 1 << lane
			if !prescreenSkip(v, depth, refc[lane], &cfg) {
				wantK |= 1 << lane
			}
		}

		var generic [screenMaskBytes]uint8
		prescreenBlocksGeneric(&planes, 0, refc, generic[:], 1, &cfg)
		gotT, gotK := generic[0], generic[1]

		// Directional conservativeness first: a scalar-kept lane must
		// survive the vectorized screen (keep ⊇ scalar keep).
		if missed := wantK &^ gotK; missed != 0 {
			t.Fatalf("vector screen skips scalar-kept lanes %08b (cfg %03b)", missed, cfgBits)
		}
		// And in fact the direction is an equality: the kernels make
		// the scalar decisions bit for bit.
		if gotT != wantT || gotK != wantK {
			t.Fatalf("generic masks (%08b,%08b), scalar (%08b,%08b) (cfg %03b)",
				gotT, gotK, wantT, wantK, cfgBits)
		}

		var simd [screenMaskBytes]uint8
		if prescreenBlocksSIMD(&planes, 0, refc, simd[:], 1, &cfg) {
			if simd != generic {
				t.Fatalf("AVX2 masks %08b, generic %08b (cfg %03b)", simd, generic, cfgBits)
			}
		}
	})
}
