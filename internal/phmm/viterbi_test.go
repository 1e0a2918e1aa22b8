package phmm

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gnumap/internal/dna"
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
