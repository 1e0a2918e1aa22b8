package phmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/pwm"
)

func TestViterbiPerfectMatch(t *testing.T) {
	a := mustAligner(t, Global)
	s := "ACGTACGT"
	path, err := a.Viterbi(noisy(t, s, 0.01), dna.MustParseSeq(s))
	if err != nil {
		t.Fatal(err)
	}
	if path.CIGAR() != "8M" {
		t.Errorf("CIGAR = %q, want 8M", path.CIGAR())
	}
	if path.Start != 1 || path.End != 8 {
		t.Errorf("span = [%d,%d], want [1,8]", path.Start, path.End)
	}
}

func TestViterbiSemiGlobalOffset(t *testing.T) {
	a := mustAligner(t, SemiGlobal)
	genome := dna.MustParseSeq("TTTTTTACGTACGGTTTTTT")
	path, err := a.Viterbi(noisy(t, "ACGTACGG", 0.01), genome)
	if err != nil {
		t.Fatal(err)
	}
	if path.Start != 7 || path.End != 14 {
		t.Errorf("span = [%d,%d], want [7,14]", path.Start, path.End)
	}
	if path.CIGAR() != "8M" {
		t.Errorf("CIGAR = %q, want 8M", path.CIGAR())
	}
}

func TestViterbiDeletion(t *testing.T) {
	a := mustAligner(t, Global)
	path, err := a.Viterbi(noisy(t, "ACGTCGTA", 0.01), dna.MustParseSeq("ACGTGCGTA"))
	if err != nil {
		t.Fatal(err)
	}
	if path.CIGAR() != "4M1D4M" {
		t.Errorf("CIGAR = %q, want 4M1D4M", path.CIGAR())
	}
}

func TestViterbiInsertion(t *testing.T) {
	a := mustAligner(t, Global)
	path, err := a.Viterbi(noisy(t, "ACGTTTCGTA", 0.01), dna.MustParseSeq("ACGTTCGTA"))
	if err != nil {
		t.Fatal(err)
	}
	// One of the T's is the insertion; run-length form is stable.
	nIns := 0
	for _, op := range path.Ops {
		if op == OpInsert {
			nIns++
		}
	}
	if nIns != 1 {
		t.Errorf("CIGAR = %q, want exactly one insertion", path.CIGAR())
	}
}

// The Viterbi path probability can never exceed the total likelihood,
// and for unambiguous near-exact matches it should dominate it.
func TestViterbiBoundedByForward(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, mode := range []Mode{Global, SemiGlobal} {
		a := mustRef(t, mode)
		for trial := 0; trial < 20; trial++ {
			n := 2 + rng.Intn(20)
			m := n + rng.Intn(10)
			x := randomPWM(rng, n)
			y := randomSeq(rng, m)
			res, err := a.Align(x, y)
			if err != nil {
				t.Fatal(err)
			}
			path, err := a.Viterbi(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if path.LogProb > res.LogLik+1e-9 {
				t.Fatalf("%v trial %d: viterbi %v > total %v", mode, trial, path.LogProb, res.LogLik)
			}
		}
	}
}

// Path op counts must be consistent: matches+insertions == read length,
// matches+deletions == consumed window span.
func TestViterbiPathConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, mode := range []Mode{Global, SemiGlobal} {
		a := mustAligner(t, mode)
		for trial := 0; trial < 30; trial++ {
			n := 1 + rng.Intn(15)
			m := n + rng.Intn(8)
			x := randomPWM(rng, n)
			y := randomSeq(rng, m)
			path, err := a.Viterbi(x, y)
			if err != nil {
				t.Fatal(err)
			}
			matches, ins, dels := 0, 0, 0
			for _, op := range path.Ops {
				switch op {
				case OpMatch:
					matches++
				case OpInsert:
					ins++
				case OpDelete:
					dels++
				}
			}
			if matches+ins != n {
				t.Fatalf("%v: consumed %d read bases, want %d (%s)", mode, matches+ins, n, path.CIGAR())
			}
			if span := path.End - path.Start + 1; matches+dels != span {
				t.Fatalf("%v: consumed %d window bases, span %d (%s)", mode, matches+dels, span, path.CIGAR())
			}
			if mode == Global && (path.Start != 1 || path.End != m) {
				t.Fatalf("global path span [%d,%d] != [1,%d]", path.Start, path.End, m)
			}
		}
	}
}

func TestViterbiErrNoAlignment(t *testing.T) {
	p := DefaultParams()
	for y := 0; y < dna.NumBases; y++ {
		for k := 0; k < dna.NumBases; k++ {
			if y == k {
				p.Match[y][k] = 1
			} else {
				p.Match[y][k] = 0
			}
		}
	}
	a, err := NewAligner(p, Global)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Viterbi(onehot(t, "A"), dna.MustParseSeq("C")); !errors.Is(err, ErrNoAlignment) {
		t.Errorf("err = %v, want ErrNoAlignment", err)
	}
}

func TestViterbiInputValidation(t *testing.T) {
	a := mustAligner(t, Global)
	if _, err := a.Viterbi(onehot(t, "A"), nil); err == nil {
		t.Error("empty window accepted")
	}
}

func TestCIGAREncoding(t *testing.T) {
	p := &Path{Ops: []Op{OpMatch, OpMatch, OpInsert, OpMatch, OpDelete, OpDelete}}
	if got := p.CIGAR(); got != "2M1I1M2D" {
		t.Errorf("CIGAR = %q, want 2M1I1M2D", got)
	}
	if (&Path{}).CIGAR() != "" {
		t.Error("empty path CIGAR must be empty")
	}
}

func TestOpString(t *testing.T) {
	if OpMatch.String() != "M" || OpInsert.String() != "I" || OpDelete.String() != "D" || Op(9).String() != "?" {
		t.Error("Op strings wrong")
	}
}

func TestViterbiLogProbMatchesManual(t *testing.T) {
	// Read "AC" vs window "AC" global: path M,M.
	// logProb = log(TMM · p*(1,1)) + log(TMM · p*(2,2)).
	a := mustAligner(t, Global)
	path, err := a.Viterbi(onehot(t, "AC"), dna.MustParseSeq("AC"))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	want := math.Log(p.TMM*p.Match[dna.A][dna.A]) + math.Log(p.TMM*p.Match[dna.C][dna.C])
	if math.Abs(path.LogProb-want) > 1e-12 {
		t.Errorf("LogProb = %v, want %v", path.LogProb, want)
	}
}

// The production Viterbi takes a read row's five log emissions once per
// row; refViterbi takes one math.Log per cell of the emission plane.
// They must agree bit for bit — LogProb, span, ops and ErrNoAlignment —
// on random and quality-derived PWMs (N calls), windows with N and codes
// past it, both modes, unbanded, narrow and full-width bands, bands that
// slide off either edge of the window, and zero-tolerance emissions
// (log 0 = -Inf cells).
func TestViterbiMatchesCellPlane(t *testing.T) {
	oneHot := DefaultParams()
	for y := range oneHot.Match {
		for k := range oneHot.Match[y] {
			oneHot.Match[y][k] = 0
		}
		oneHot.Match[y][y] = 1
	}
	for _, mode := range []Mode{Global, SemiGlobal} {
		for pi, p := range []Params{DefaultParams(), oneHot} {
			rng := rand.New(rand.NewSource(int64(71 + 2*int(mode) + pi)))
			a, err := NewAligner(p, mode)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newRefAligner(p, mode)
			if err != nil {
				t.Fatal(err)
			}
			paths, dead := 0, 0
			for trial := 0; trial < 300; trial++ {
				n := 1 + rng.Intn(40)
				m := 1 + rng.Intn(60)
				var x *pwm.Matrix
				switch {
				case pi == 1:
					x, err = pwm.FromSeqUniformError(randomSeq(rng, n), 0)
					if err != nil {
						t.Fatal(err)
					}
				case trial%2 == 0:
					x = qualityRead(rng, n)
				default:
					x = randomPWM(rng, n)
				}
				y := randomSeq(rng, m)
				if pi == 1 {
					copy(y, x.Calls())
				}
				if trial%3 != 0 {
					plantAmbiguous(rng, y)
				}
				diag, band := 0, 0
				switch trial % 4 {
				case 1: // narrow, on or near the diagonal
					diag, band = rng.Intn(max(m-n, 0)+3), 2+2*rng.Intn(6)
				case 2: // full width
					band = fullWidthBand(n, m)
				case 3: // slides off the left or the right edge
					band = 2 + 2*rng.Intn(4)
					diag = -band - rng.Intn(4)
					if rng.Intn(2) == 0 {
						diag = m - n + band/2 + rng.Intn(6)
					}
				}
				label := fmt.Sprintf("%v params %d trial %d (n=%d m=%d diag=%d band=%d)", mode, pi, trial, n, m, diag, band)
				want, wantErr := ref.refViterbi(x, y, diag, band)
				got, gotErr := a.ViterbiBanded(x, y, diag, band)
				if wantErr != nil {
					if !errors.Is(wantErr, ErrNoAlignment) {
						t.Fatalf("%s: oracle: %v", label, wantErr)
					}
					if !errors.Is(gotErr, ErrNoAlignment) {
						t.Fatalf("%s: err = %v, want ErrNoAlignment", label, gotErr)
					}
					dead++
					continue
				}
				if gotErr != nil {
					t.Fatalf("%s: %v, oracle found %s", label, gotErr, want.CIGAR())
				}
				if math.Float64bits(got.LogProb) != math.Float64bits(want.LogProb) ||
					got.Start != want.Start || got.End != want.End || !slices.Equal(got.Ops, want.Ops) {
					t.Fatalf("%s: got %g [%d,%d] %s, want %g [%d,%d] %s", label,
						got.LogProb, got.Start, got.End, got.CIGAR(), want.LogProb, want.Start, want.End, want.CIGAR())
				}
				paths++
			}
			if a.CellsComputed() != ref.CellsComputed() {
				t.Errorf("%v params %d: %d cells, oracle %d", mode, pi, a.CellsComputed(), ref.CellsComputed())
			}
			if paths < 30 || dead < 30 {
				t.Errorf("%v params %d: %d paths and %d ErrNoAlignment in 300 trials; want both covered", mode, pi, paths, dead)
			}
		}
	}
}
