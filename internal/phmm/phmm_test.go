package phmm

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/pwm"
)

func mustAligner(t *testing.T, mode Mode) *Aligner {
	t.Helper()
	a, err := NewAligner(DefaultParams(), mode)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func onehot(t *testing.T, s string) *pwm.Matrix {
	t.Helper()
	m, err := pwm.FromSeqUniformError(dna.MustParseSeq(s), 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func noisy(t *testing.T, s string, e float64) *pwm.Matrix {
	t.Helper()
	m, err := pwm.FromSeqUniformError(dna.MustParseSeq(s), e)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidation(t *testing.T) {
	base := DefaultParams()

	p := base
	p.TMM = 0.9 // breaks TMM + 2 TMG = 1
	if err := p.Validate(); err == nil {
		t.Error("unbalanced match transitions accepted")
	}
	p = base
	p.TGG, p.TGM = 0.5, 0.6
	if err := p.Validate(); err == nil {
		t.Error("unbalanced gap transitions accepted")
	}
	p = base
	p.Q = 0
	if err := p.Validate(); err == nil {
		t.Error("zero gap emission accepted")
	}
	p = base
	p.Match[0][0] = 0.5 // row no longer sums to 1
	if err := p.Validate(); err == nil {
		t.Error("non-stochastic match row accepted")
	}
	p = base
	p.TMG = -0.025
	if err := p.Validate(); err == nil {
		t.Error("negative transition accepted")
	}
}

func TestNewAlignerRejectsBadMode(t *testing.T) {
	if _, err := NewAligner(DefaultParams(), Mode(99)); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestSingleCellGlobalExact(t *testing.T) {
	// Read "A" vs window "A": the only alignment is one match.
	// L = TMM · p*(1,1), p*(1,1) = Match[A][A] = 0.98.
	a := mustRef(t, Global)
	res, err := a.Align(onehot(t, "A"), dna.MustParseSeq("A"))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	want := math.Log(p.TMM * p.Match[dna.A][dna.A])
	if math.Abs(res.LogLik-want) > 1e-12 {
		t.Errorf("LogLik = %v, want %v", res.LogLik, want)
	}
	if got := res.PostMatch(1, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("PostMatch(1,1) = %v, want 1", got)
	}
}

// bruteForce enumerates every alignment path explicitly and sums its
// probability, independent of the DP code.
func bruteForce(t *testing.T, p Params, x *pwm.Matrix, y dna.Seq, mode Mode) float64 {
	t.Helper()
	n, m := x.Len(), len(y)
	pstar := func(i, j int) float64 {
		row := x.Row(i - 1)
		mr := p.Match[y[j-1]]
		s := 0.0
		for k := 0; k < dna.NumBases; k++ {
			s += row[k] * mr[k]
		}
		return s
	}
	type state int
	const (
		M state = iota
		X
		Y
	)
	var total float64
	var walk func(st state, i, j int, prob float64)
	terminal := func(st state, i, j int) bool {
		if mode == Global {
			return i == n && j == m
		}
		return i == n && (st == M || st == X)
	}
	walk = func(st state, i, j int, prob float64) {
		if terminal(st, i, j) {
			total += prob
			// In SemiGlobal a terminal cell may still extend (e.g. via
			// GX); in Global (n,m) is absorbing. Continue exploring in
			// neither case: Global cannot move past (n,m) anyway, and
			// SemiGlobal terminal M/GX states end the path by
			// definition of the terminal sum. But GX at row n can also
			// be *reached through* further read bases — impossible, no
			// read bases remain. So stop.
			return
		}
		if i > n || j > m {
			return
		}
		var tM, tG float64
		switch st {
		case M:
			tM, tG = p.TMM, p.TMG
		default:
			tM, tG = p.TGM, p.TGG
		}
		// -> M(i+1, j+1)
		if i+1 <= n && j+1 <= m {
			walk(M, i+1, j+1, prob*tM*pstar(i+1, j+1))
		}
		// -> GX(i+1, j): only from M or X.
		if (st == M || st == X) && i+1 <= n {
			walk(X, i+1, j, prob*tG*p.Q)
		}
		// -> GY(i, j+1): only from M or Y.
		if (st == M || st == Y) && j+1 <= m {
			walk(Y, i, j+1, prob*tG*p.Q)
		}
	}
	if mode == Global {
		// The paper zeroes the f borders, so every global alignment
		// starts with a match at (1,1): no leading gaps.
		// The begin state behaves like M, so entering M(1,1) costs TMM.
		walk(M, 1, 1, p.TMM*pstar(1, 1))
	} else {
		for j := 1; j <= m; j++ {
			walk(M, 1, j, pstar(1, j))
		}
	}
	return total
}

func TestForwardMatchesBruteForceGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := mustRef(t, Global)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(3)
		m := 1 + rng.Intn(4) // insertions make m < n legal
		x := randomPWM(rng, n)
		y := randomSeq(rng, m)
		res, err := a.Align(x, y)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(t, a.params, x, y, Global)
		got := math.Exp(res.LogLik)
		if relErr(got, want) > 1e-9 {
			t.Fatalf("trial %d (n=%d m=%d): DP=%g brute=%g", trial, n, m, got, want)
		}
	}
}

func TestForwardMatchesBruteForceSemiGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := mustRef(t, SemiGlobal)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(3)
		m := 1 + rng.Intn(4)
		x := randomPWM(rng, n)
		y := randomSeq(rng, m)
		res, err := a.Align(x, y)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(t, a.params, x, y, SemiGlobal)
		got := math.Exp(res.LogLik)
		if relErr(got, want) > 1e-9 {
			t.Fatalf("trial %d (n=%d m=%d): DP=%g brute=%g", trial, n, m, got, want)
		}
	}
}

func randomSeq(rng *rand.Rand, m int) dna.Seq {
	y := make(dna.Seq, m)
	for i := range y {
		y[i] = dna.Code(rng.Intn(4))
	}
	return y
}

func randomPWM(rng *rand.Rand, n int) *pwm.Matrix {
	s := randomSeq(rng, n)
	m, err := pwm.FromSeqUniformError(s, 0.05+0.3*rng.Float64())
	if err != nil {
		panic(err)
	}
	return m
}

func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	den := math.Max(math.Abs(a), math.Abs(b))
	return d / den
}

// Each read base is in exactly one of the M/GX states in any alignment,
// so its posterior row must sum to 1 — in both modes, any inputs.
func TestPosteriorRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, mode := range []Mode{Global, SemiGlobal} {
		a := mustRef(t, mode)
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(40)
			m := n + rng.Intn(20)
			x := randomPWM(rng, n)
			y := randomSeq(rng, m)
			res, err := a.Align(x, y)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= n; i++ {
				sum := 0.0
				for j := 1; j <= m; j++ {
					sum += res.PostMatch(i, j) + res.PostGapX(i, j)
				}
				// Global mode: GX at column 0 is zeroed per the paper,
				// and GX(i, m) cells are unreachable-to-terminal except
				// through column m; the row sum is still 1 because
				// every path emits read base i somewhere in 1..m.
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("%v trial %d: row %d posterior sum = %v", mode, trial, i, sum)
				}
			}
		}
	}
}

func TestPosteriorPeaksOnPerfectMatch(t *testing.T) {
	a := mustRef(t, Global)
	s := "ACGTACGTTGCA"
	res, err := a.Align(noisy(t, s, 0.01), dna.MustParseSeq(s))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= len(s); i++ {
		if got := res.PostMatch(i, i); got < 0.99 {
			t.Errorf("PostMatch(%d,%d) = %v, want > 0.99", i, i, got)
		}
	}
}

func TestSemiGlobalFindsOffsetMatch(t *testing.T) {
	a := mustRef(t, SemiGlobal)
	genome := dna.MustParseSeq("TTTTTTACGTACGGTTTTTT")
	read := noisy(t, "ACGTACGG", 0.01)
	res, err := a.Align(read, genome)
	if err != nil {
		t.Fatal(err)
	}
	// Read base i should match window position i+6.
	for i := 1; i <= 8; i++ {
		if got := res.PostMatch(i, i+6); got < 0.95 {
			t.Errorf("PostMatch(%d,%d) = %v, want > 0.95", i, i+6, got)
		}
	}
}

func TestDeletionShowsGapPosterior(t *testing.T) {
	// Window has one extra base relative to the read: the alignment
	// must delete it, and PostGapY mass should appear at that column.
	a := mustRef(t, Global)
	read := noisy(t, "ACGTCGTA", 0.01)
	window := dna.MustParseSeq("ACGTGCGTA") // extra G at column 5
	res, err := a.Align(read, window)
	if err != nil {
		t.Fatal(err)
	}
	gapMass := 0.0
	for i := 1; i <= read.Len(); i++ {
		gapMass += res.PostGapY(i, 5)
	}
	if gapMass < 0.5 {
		t.Errorf("gap posterior at deleted column = %v, want > 0.5", gapMass)
	}
}

func TestInsertionShowsGapXPosterior(t *testing.T) {
	// Read has one extra base: some read base must sit in GX.
	a := mustRef(t, Global)
	read := noisy(t, "ACGTTCGTA", 0.01) // extra T at read position 5
	window := dna.MustParseSeq("ACGTCGTA")
	res, err := a.Align(read, window)
	if err != nil {
		t.Fatal(err)
	}
	insMass := 0.0
	for i := 1; i <= read.Len(); i++ {
		for j := 1; j <= len(window); j++ {
			insMass += res.PostGapX(i, j)
		}
	}
	if insMass < 0.5 {
		t.Errorf("total insertion posterior = %v, want > 0.5", insMass)
	}
}

func TestContributionByCall(t *testing.T) {
	a := mustRef(t, Global)
	s := "ACGTACGT"
	res, err := a.Align(noisy(t, s, 0.01), dna.MustParseSeq(s))
	if err != nil {
		t.Fatal(err)
	}
	seq := dna.MustParseSeq(s)
	for j := 1; j <= len(s); j++ {
		z, total := res.Contribution(j, ByCall)
		if total < 0.9 {
			t.Errorf("position %d: total mass %v, want ~1", j, total)
		}
		sum := 0.0
		for k := range z {
			sum += z[k]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("position %d: z sums to %v", j, sum)
		}
		if z[seq[j-1]] < 0.98 {
			t.Errorf("position %d: z[%v] = %v, want > 0.98", j, seq[j-1], z[seq[j-1]])
		}
	}
}

func TestContributionByPWMSpreadsUncertainty(t *testing.T) {
	a := mustRef(t, Global)
	// Very low-confidence read: e = 0.6 means the called base gets 0.4.
	read, err := pwm.FromSeqUniformError(dna.MustParseSeq("A"), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Align(read, dna.MustParseSeq("A"))
	if err != nil {
		t.Fatal(err)
	}
	zCall, _ := res.Contribution(1, ByCall)
	zPWM, _ := res.Contribution(1, ByPWM)
	if zCall[dna.A] < 0.999 {
		t.Errorf("ByCall z[A] = %v, want 1", zCall[dna.A])
	}
	if zPWM[dna.A] > 0.5 {
		t.Errorf("ByPWM z[A] = %v, want the 0.4 call weight", zPWM[dna.A])
	}
}

func TestContributionOutsideAlignmentIsZero(t *testing.T) {
	a := mustRef(t, SemiGlobal)
	genome := dna.MustParseSeq("TTTTTTTTTTACGTACGGTTTTTTTTTT")
	res, err := a.Align(noisy(t, "ACGTACGG", 0.01), genome)
	if err != nil {
		t.Fatal(err)
	}
	_, totalFar := res.Contribution(2, ByCall)
	if totalFar > 0.01 {
		t.Errorf("mass at distant position = %v, want ~0", totalFar)
	}
	_, totalIn := res.Contribution(12, ByCall)
	if totalIn < 0.9 {
		t.Errorf("mass inside alignment = %v, want ~1", totalIn)
	}
}

func TestLongReadScalingStable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 2000 // would underflow float64 without scaling (0.25^2000)
	y := randomSeq(rng, n)
	x, err := pwm.FromSeqUniformError(y, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	a := mustRef(t, Global)
	res, err := a.Align(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.LogLik, 0) || math.IsNaN(res.LogLik) {
		t.Fatalf("LogLik = %v", res.LogLik)
	}
	// Posterior must still be sharp along the diagonal.
	if got := res.PostMatch(n/2, n/2); got < 0.95 {
		t.Errorf("mid posterior = %v, want > 0.95", got)
	}
}

func TestErrNoAlignment(t *testing.T) {
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
	a, err := newRefAligner(p, Global)
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.Align(onehot(t, "A"), dna.MustParseSeq("C"))
	if !errors.Is(err, ErrNoAlignment) {
		t.Errorf("err = %v, want ErrNoAlignment", err)
	}
}

func TestAlignInputValidation(t *testing.T) {
	a := mustAligner(t, Global)
	if _, err := a.AlignBanded(onehot(t, "A"), nil, 0, 0); err == nil {
		t.Error("empty window accepted")
	}
	empty, _ := pwm.FromSeqUniformError(nil, 0.1)
	if _, err := a.AlignBanded(empty, dna.MustParseSeq("A"), 0, 0); err == nil {
		t.Error("empty read accepted")
	}
	if a.CellsComputed() != 0 {
		t.Errorf("rejected inputs billed %d cells", a.CellsComputed())
	}
}

func TestGenomeNUniformEmission(t *testing.T) {
	a := mustRef(t, Global)
	res, err := a.Align(onehot(t, "A"), dna.MustParseSeq("N"))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	want := math.Log(p.TMM * p.meanMatch()[dna.A])
	if math.Abs(res.LogLik-want) > 1e-12 {
		t.Errorf("LogLik vs N = %v, want %v", res.LogLik, want)
	}
}

func TestBufferReuseAcrossSizes(t *testing.T) {
	a := mustRef(t, SemiGlobal)
	// Big alignment then small one: stale buffer contents must not leak.
	if _, err := a.Align(onehot(t, "ACGTACGTACGTACGT"), dna.MustParseSeq("ACGTACGTACGTACGTACGT")); err != nil {
		t.Fatal(err)
	}
	res, err := a.Align(onehot(t, "GG"), dna.MustParseSeq("AGGA"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		sum := 0.0
		for j := 1; j <= 4; j++ {
			sum += res.PostMatch(i, j) + res.PostGapX(i, j)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d posterior sum after reuse = %v", i, sum)
		}
	}
}

// ContributionsInto must agree with per-column Contribution exactly.
func TestContributionsIntoMatchesPerColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, mode := range []Mode{Global, SemiGlobal} {
		for _, attr := range []Attribution{ByCall, ByPWM} {
			a := mustRef(t, mode)
			n := 5 + rng.Intn(30)
			m := n + rng.Intn(16)
			x := randomPWM(rng, n)
			y := randomSeq(rng, m)
			res, err := a.Align(x, y)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([][dna.NumChannels]float64, m)
			totals := make([]float64, m)
			if err := res.ContributionsInto(attr, dst, totals); err != nil {
				t.Fatal(err)
			}
			for j := 1; j <= m; j++ {
				z, total := res.Contribution(j, attr)
				if math.Abs(total-totals[j-1]) > 1e-9 {
					t.Fatalf("%v/%v col %d: total %v vs %v", mode, attr, j, totals[j-1], total)
				}
				for k := range z {
					if math.Abs(z[k]-dst[j-1][k]) > 1e-9 {
						t.Fatalf("%v/%v col %d ch %d: %v vs %v", mode, attr, j, k, dst[j-1][k], z[k])
					}
				}
			}
			if err := res.ContributionsInto(attr, dst[:1], totals); err == nil {
				t.Fatal("short dst accepted")
			}
		}
	}
}

// Reusing an aligner across many differently-sized alignments must not
// leak stale state now that buffers are not bulk-cleared.
func TestBufferReuseNoStaleState(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, mode := range []Mode{Global, SemiGlobal} {
		reused := mustRef(t, mode)
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.Intn(25)
			m := 1 + rng.Intn(30)
			if mode == Global && m < n {
				m = n // keep global problems well-posed for comparison
			}
			x := randomPWM(rng, n)
			y := randomSeq(rng, m)
			fresh := mustRef(t, mode)
			rr, err1 := reused.Align(x, y)
			fr, err2 := fresh.Align(x, y)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%v trial %d: err mismatch %v vs %v", mode, trial, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if math.Abs(rr.LogLik-fr.LogLik) > 1e-9*(1+math.Abs(fr.LogLik)) {
				t.Fatalf("%v trial %d: loglik %v vs fresh %v", mode, trial, rr.LogLik, fr.LogLik)
			}
			for i := 1; i <= n; i++ {
				for j := 1; j <= m; j++ {
					if math.Abs(rr.PostMatch(i, j)-fr.PostMatch(i, j)) > 1e-9 ||
						math.Abs(rr.PostGapX(i, j)-fr.PostGapX(i, j)) > 1e-9 ||
						math.Abs(rr.PostGapY(i, j)-fr.PostGapY(i, j)) > 1e-9 {
						t.Fatalf("%v trial %d: posterior mismatch at (%d,%d)", mode, trial, i, j)
					}
				}
			}
		}
	}
}
