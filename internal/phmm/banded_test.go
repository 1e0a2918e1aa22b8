package phmm

import (
	"math"
	"math/rand"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/pwm"
)

// fullWidthBand returns a band wide enough that every DP row spans the
// whole window, so AlignBanded must reproduce the full kernel exactly.
func fullWidthBand(n, m int) int { return 2 * (n + m) }

// mutate returns a copy of read with k random point mutations.
func mutate(rng *rand.Rand, read dna.Seq, k int) dna.Seq {
	out := read.Clone()
	for t := 0; t < k; t++ {
		i := rng.Intn(len(out))
		out[i] = dna.Code((int(out[i]) + 1 + rng.Intn(3)) % 4)
	}
	return out
}

// contribsOf runs ContributionsInto and returns fresh slices.
func contribsOf(t *testing.T, res *refResult) ([][dna.NumChannels]float64, []float64) {
	t.Helper()
	dst := make([][dna.NumChannels]float64, res.M)
	totals := make([]float64, res.M)
	if err := res.ContributionsInto(ByCall, dst, totals); err != nil {
		t.Fatal(err)
	}
	return dst, totals
}

// TestAlignBandedFullWidthExact: on the scalar reference, a band covering
// the whole window must match Align bit-for-bit — same LogLik, same
// posterior contributions, down to the last ulp.
func TestAlignBandedFullWidthExact(t *testing.T) {
	for _, mode := range []Mode{Global, SemiGlobal} {
		rng := rand.New(rand.NewSource(101))
		full := mustRef(t, mode)
		banded := mustRef(t, mode)
		for trial := 0; trial < 30; trial++ {
			m := 10 + rng.Intn(80)
			n := m
			if mode == SemiGlobal {
				n = 2 + rng.Intn(m)
			}
			window := randomSeq(rng, m)
			x := randomPWM(rng, n)

			resF, errF := full.Align(x, window)
			resB, errB := banded.AlignBanded(x, window, 0, fullWidthBand(n, m))
			if (errF == nil) != (errB == nil) {
				t.Fatalf("mode %v trial %d: full err %v, banded err %v", mode, trial, errF, errB)
			}
			if errF != nil {
				continue
			}
			if resF.LogLik != resB.LogLik {
				t.Fatalf("mode %v trial %d: LogLik full %v != banded %v",
					mode, trial, resF.LogLik, resB.LogLik)
			}
			dstF, totF := contribsOf(t, resF)
			dstB, totB := contribsOf(t, resB)
			for j := range dstF {
				if totF[j] != totB[j] {
					t.Fatalf("mode %v trial %d col %d: total full %v != banded %v",
						mode, trial, j, totF[j], totB[j])
				}
				if dstF[j] != dstB[j] {
					t.Fatalf("mode %v trial %d col %d: contribs full %v != banded %v",
						mode, trial, j, dstF[j], dstB[j])
				}
			}
		}
	}
}

// TestAlignBandedRandomIndelReads is the fuzz-style equivalence test:
// reads carved from the window with point mutations and small indels
// (all within the band) must agree with the full kernel to 1e-9 in
// both LogLik and contributions.
func TestAlignBandedRandomIndelReads(t *testing.T) {
	// Radius 16 covers offset<=8 plus <=2bp indels with enough margin
	// that the genuinely excluded off-band path mass sits below 1e-9
	// (empirically ~1e-8 at radius 12: mass decays geometrically with
	// distance from the seed diagonal).
	const band = 32
	const tol = 1e-9
	rng := rand.New(rand.NewSource(211))
	for _, mode := range []Mode{Global, SemiGlobal} {
		full := mustRef(t, mode)
		banded := mustRef(t, mode)
		for trial := 0; trial < 60; trial++ {
			m := 62 + rng.Intn(30)
			window := randomSeq(rng, m)
			var read dna.Seq
			diag := 0
			if mode == SemiGlobal {
				diag = rng.Intn(9)
				end := diag + 40 + rng.Intn(m-40-diag+1)
				read = mutate(rng, window[diag:end], 2)
			} else {
				read = mutate(rng, window, 2)
			}
			// Small indels: delete then insert keeps Global lengths
			// balanced and stays well inside the band either way.
			if len(read) > 4 {
				del := rng.Intn(len(read) - 1)
				read = append(read[:del:del], read[del+1:]...)
				if mode == Global || rng.Intn(2) == 0 {
					ins := rng.Intn(len(read))
					read = append(read[:ins:ins],
						append(dna.Seq{dna.Code(rng.Intn(4))}, read[ins:]...)...)
				}
			}
			x, err := pwm.FromSeqUniformError(read, 0.01)
			if err != nil {
				t.Fatal(err)
			}

			resF, errF := full.Align(x, window)
			llF := math.Inf(-1)
			var dstF [][dna.NumChannels]float64
			var totF []float64
			if errF == nil {
				llF = resF.LogLik
				dstF, totF = contribsOf(t, resF)
			}
			resB, errB := banded.AlignBanded(x, window, diag, band)
			if errF != nil || errB != nil {
				// A mapped-shaped read should always align; treat any
				// rejection as a test-setup bug worth seeing.
				t.Fatalf("mode %v trial %d: full err %v, banded err %v", mode, trial, errF, errB)
			}
			if relErr(llF, resB.LogLik) > tol {
				t.Fatalf("mode %v trial %d: LogLik full %v vs banded %v (rel %g)",
					mode, trial, llF, resB.LogLik, relErr(llF, resB.LogLik))
			}
			dstB, totB := contribsOf(t, resB)
			for j := range dstF {
				if d := math.Abs(totF[j] - totB[j]); d > tol {
					t.Fatalf("mode %v trial %d col %d: total full %v vs banded %v",
						mode, trial, j, totF[j], totB[j])
				}
				for ch := range dstF[j] {
					// Compare unnormalized posterior mass (what the
					// accumulator receives): per-column renormalization
					// divides by the total, which can amplify a sub-tol
					// mass difference in lightly grazed padding columns.
					d := math.Abs(dstF[j][ch]*totF[j] - dstB[j][ch]*totB[j])
					if d > tol {
						t.Fatalf("mode %v trial %d col %d ch %d: full %v vs banded %v",
							mode, trial, j, ch, dstF[j][ch]*totF[j], dstB[j][ch]*totB[j])
					}
				}
			}
		}
	}
}

// TestViterbiBandedFullWidthExact mirrors the forward/backward property
// test for the Viterbi kernel: full-width band, identical best path.
func TestViterbiBandedFullWidthExact(t *testing.T) {
	for _, mode := range []Mode{Global, SemiGlobal} {
		rng := rand.New(rand.NewSource(307))
		full := mustAligner(t, mode)
		banded := mustAligner(t, mode)
		for trial := 0; trial < 30; trial++ {
			m := 10 + rng.Intn(60)
			n := m
			if mode == SemiGlobal {
				n = 2 + rng.Intn(m)
			}
			window := randomSeq(rng, m)
			x := randomPWM(rng, n)

			pF, errF := full.Viterbi(x, window)
			// Capture before the banded call invalidates nothing (two
			// aligners), but copy anyway for clarity.
			var lpF float64
			var cigarF string
			var startF, endF int
			if errF == nil {
				lpF, cigarF, startF, endF = pF.LogProb, pF.CIGAR(), pF.Start, pF.End
			}
			pB, errB := banded.ViterbiBanded(x, window, 0, fullWidthBand(n, m))
			if (errF == nil) != (errB == nil) {
				t.Fatalf("mode %v trial %d: full err %v, banded err %v", mode, trial, errF, errB)
			}
			if errF != nil {
				continue
			}
			if lpF != pB.LogProb || startF != pB.Start || endF != pB.End || cigarF != pB.CIGAR() {
				t.Fatalf("mode %v trial %d: full {%v %d-%d %s} vs banded {%v %d-%d %s}",
					mode, trial, lpF, startF, endF, cigarF,
					pB.LogProb, pB.Start, pB.End, pB.CIGAR())
			}
		}
	}
}

// TestViterbiBandedMatchedReads checks the banded Viterbi on
// mapped-shaped reads: the optimal path stays inside the band, so the
// banded and full kernels must find the same path.
func TestViterbiBandedMatchedReads(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	full := mustAligner(t, SemiGlobal)
	banded := mustAligner(t, SemiGlobal)
	for trial := 0; trial < 40; trial++ {
		m := 70 + rng.Intn(20)
		window := randomSeq(rng, m)
		diag := rng.Intn(9)
		read := mutate(rng, window[diag:diag+62], 2)
		x, err := pwm.FromSeqUniformError(read, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		pF, err := full.Viterbi(x, window)
		if err != nil {
			t.Fatal(err)
		}
		lpF, cigarF := pF.LogProb, pF.CIGAR()
		pB, err := banded.ViterbiBanded(x, window, diag, 20)
		if err != nil {
			t.Fatal(err)
		}
		if lpF != pB.LogProb || cigarF != pB.CIGAR() {
			t.Fatalf("trial %d: full {%v %s} vs banded {%v %s}",
				trial, lpF, cigarF, pB.LogProb, pB.CIGAR())
		}
	}
}

// TestBandedOffMatrixErrNoAlignment: a band anchored entirely outside
// the window cannot contain any DP cell and must report ErrNoAlignment
// rather than a bogus score.
func TestBandedOffMatrixErrNoAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	window := randomSeq(rng, 40)
	x := randomPWM(rng, 20)
	for _, mode := range []Mode{Global, SemiGlobal} {
		a := mustAligner(t, mode)
		if _, err := a.AlignBanded(x, window, 1000, 4); err != ErrNoAlignment {
			t.Errorf("mode %v AlignBanded off-matrix: err %v, want ErrNoAlignment", mode, err)
		}
		if _, err := a.ViterbiBanded(x, window, 1000, 4); err != ErrNoAlignment {
			t.Errorf("mode %v ViterbiBanded off-matrix: err %v, want ErrNoAlignment", mode, err)
		}
	}
}

// TestBandCells sanity-checks the cell-count helper used for ns/cell
// benchmark reporting.
func TestBandCells(t *testing.T) {
	if got, want := BandCells(62, 78, 8, 0), 62*78; got != want {
		t.Errorf("full BandCells = %d, want %d", got, want)
	}
	banded := BandCells(62, 78, 8, 18)
	if banded <= 0 || banded >= 62*78 {
		t.Errorf("banded BandCells = %d, want in (0, %d)", banded, 62*78)
	}
	// Narrow band: at most band+1 cells per row (radius on each side).
	if max := 62 * 19; banded > max {
		t.Errorf("banded BandCells = %d, exceeds %d", banded, max)
	}
	if BandCells(20, 40, 1000, 4) != 0 {
		t.Errorf("off-matrix BandCells != 0")
	}
}

// TestAlignBandedBufferReuse interleaves banded and full one-lane
// AlignBanded sweeps of different geometries on one Aligner, each held
// to the scalar reference's full kernel, to shake out stale-state bugs in
// the guard-cell discipline.
func TestAlignBandedBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	a := mustAligner(t, SemiGlobal)
	ref := mustRef(t, SemiGlobal)
	for trial := 0; trial < 50; trial++ {
		m := 20 + rng.Intn(70)
		n := 2 + rng.Intn(m)
		window := randomSeq(rng, m)
		x := randomPWM(rng, n)
		band := 0
		diag := 0
		if rng.Intn(2) == 0 {
			band = fullWidthBand(n, m)
			diag = rng.Intn(5)
		}
		resA, errA := a.AlignBanded(x, window, diag, band)
		resR, errR := ref.Align(x, window)
		if (errA == nil) != (errR == nil) {
			t.Fatalf("trial %d: banded err %v, full err %v", trial, errA, errR)
		}
		if errA != nil {
			continue
		}
		if resA.LogLik != resR.LogLik {
			t.Fatalf("trial %d (band %d): LogLik %v != %v", trial, band, resA.LogLik, resR.LogLik)
		}
	}
}
