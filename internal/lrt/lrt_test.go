package lrt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gnumap/internal/dna"
	"gnumap/internal/stats"
)

func TestPaperExampleVector(t *testing.T) {
	// The paper's worked example: 20 reads, z = (14, 1, 3, 2, 0).
	res, err := Test(Vector{14, 1, 3, 2, 0}, Monoploid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Top != dna.ChA || res.Second != dna.ChG {
		t.Errorf("ordering: top=%v second=%v", res.Top, res.Second)
	}
	if res.N != 20 {
		t.Errorf("N = %v", res.N)
	}
	// Hand computation:
	// null = 20·log(0.2)
	// alt  = 14·log(14/20) + 6·log(6/80)
	null := 20 * math.Log(0.2)
	alt := 14*math.Log(14.0/20) + 6*math.Log(6.0/80)
	want := -2 * (null - alt)
	if math.Abs(res.Stat-want) > 1e-10 {
		t.Errorf("Stat = %v, want %v", res.Stat, want)
	}
	sig, err := res.Significant(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !sig {
		t.Errorf("14/20 concentration should be significant (p = %g)", res.PValue)
	}
}

func TestZeroMass(t *testing.T) {
	res, err := Test(Vector{}, Monoploid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stat != 0 || res.PValue != 1 || res.N != 0 {
		t.Errorf("zero vector: %+v", res)
	}
}

func TestUniformBackgroundNotSignificant(t *testing.T) {
	res, err := Test(Vector{4, 4, 4, 4, 4}, Monoploid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stat > 1e-9 {
		t.Errorf("uniform vector Stat = %v, want 0", res.Stat)
	}
	if res.PValue < 0.99 {
		t.Errorf("uniform vector p = %v, want ~1", res.PValue)
	}
}

func TestPureBaseFullySignificant(t *testing.T) {
	res, err := Test(Vector{0, 30, 0, 0, 0}, Monoploid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Top != dna.ChC {
		t.Errorf("top = %v, want C", res.Top)
	}
	// Stat = -2(30·log0.2 - 30·log1) = -60·log 0.2.
	want := -60 * math.Log(0.2)
	if math.Abs(res.Stat-want) > 1e-10 {
		t.Errorf("Stat = %v, want %v", res.Stat, want)
	}
	if res.PValue > 1e-12 {
		t.Errorf("p = %v, want ~0", res.PValue)
	}
}

func TestDiploidHeterozygousDetected(t *testing.T) {
	// Two equal channels far above background: het model must win.
	res, err := Test(Vector{10, 0, 10, 0, 0}, Diploid)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Heterozygous {
		t.Error("balanced two-channel vector not flagged heterozygous")
	}
	if res.Top != dna.ChA || res.Second != dna.ChG {
		t.Errorf("top/second = %v/%v", res.Top, res.Second)
	}
	sig, _ := res.Significant(0.05)
	if !sig {
		t.Errorf("het signal not significant (p=%g)", res.PValue)
	}

	// The same vector under a monoploid test must not set the flag.
	mono, err := Test(Vector{10, 0, 10, 0, 0}, Monoploid)
	if err != nil {
		t.Fatal(err)
	}
	if mono.Heterozygous {
		t.Error("monoploid test set Heterozygous")
	}
	// And the diploid statistic must be at least the monoploid one:
	// its alternative family is a superset.
	if res.Stat < mono.Stat-1e-9 {
		t.Errorf("diploid stat %v < monoploid stat %v", res.Stat, mono.Stat)
	}
}

func TestDiploidHomozygousPreferred(t *testing.T) {
	res, err := Test(Vector{20, 1, 1, 1, 1}, Diploid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Heterozygous {
		t.Error("single dominant channel flagged heterozygous")
	}
}

func TestDiploidStatManual(t *testing.T) {
	// z = (8, 6, 1, 1, 0), n = 16.
	z := Vector{8, 6, 1, 1, 0}
	res, err := Test(z, Diploid)
	if err != nil {
		t.Fatal(err)
	}
	n := 16.0
	null := n * math.Log(0.2)
	hom := 8*math.Log(8/n) + 8*math.Log(8/(4*n))
	// Constrained het MLE: p(5) = p(4) = (8+6)/(2·16).
	het := 14*math.Log(14/(2*n)) + 2*math.Log(2/(3*n))
	alt := math.Max(hom, het)
	want := -2 * (null - alt)
	if math.Abs(res.Stat-want) > 1e-10 {
		t.Errorf("Stat = %v, want %v", res.Stat, want)
	}
	if res.Heterozygous != (het > hom) {
		t.Errorf("Heterozygous = %v, het=%v hom=%v", res.Heterozygous, het, hom)
	}
	wantHetStat := math.Max(0, 2*(het-hom))
	if math.Abs(res.HetStat-wantHetStat) > 1e-10 {
		t.Errorf("HetStat = %v, want %v", res.HetStat, wantHetStat)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Test(Vector{-1, 0, 0, 0, 0}, Monoploid); err == nil {
		t.Error("negative mass accepted")
	}
	if _, err := Test(Vector{math.NaN(), 0, 0, 0, 0}, Monoploid); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := Test(Vector{math.Inf(1), 0, 0, 0, 0}, Monoploid); err == nil {
		t.Error("Inf accepted")
	}
	if _, err := Test(Vector{1, 0, 0, 0, 0}, Ploidy(7)); err == nil {
		t.Error("bad ploidy accepted")
	}
}

// Properties: statistic is non-negative; scaling total mass up at fixed
// proportions increases (or keeps) the statistic; statistic is invariant
// under channel permutation.
func TestStatProperties(t *testing.T) {
	f := func(a, b, c, d, e float64) bool {
		z := Vector{abs1(a), abs1(b), abs1(c), abs1(d), abs1(e)}
		res, err := Test(z, Monoploid)
		if err != nil || res.Stat < 0 {
			return false
		}
		// Permutation invariance (rotate channels).
		zr := Vector{z[4], z[0], z[1], z[2], z[3]}
		res2, err := Test(zr, Monoploid)
		if err != nil {
			return false
		}
		if math.Abs(res.Stat-res2.Stat) > 1e-9*(1+res.Stat) {
			return false
		}
		// Doubling the evidence at the same proportions doubles the
		// statistic exactly (it is linear in n at fixed proportions).
		z2 := Vector{2 * z[0], 2 * z[1], 2 * z[2], 2 * z[3], 2 * z[4]}
		res3, err := Test(z2, Monoploid)
		if err != nil {
			return false
		}
		return math.Abs(res3.Stat-2*res.Stat) < 1e-9*(1+res.Stat)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs1(v float64) float64 {
	v = math.Abs(v)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 50)
}

func TestCriticalValueMatchesQuantile(t *testing.T) {
	cut, err := AdjustedPValueCutoff(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cut-0.01) > 1e-15 {
		t.Errorf("AdjustedPValueCutoff(0.05) = %v, want α/5 = 0.01", cut)
	}
	cv, err := stats.ChiSquareQuantile(1-cut, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Consistency: a statistic exactly at the critical value has
	// p-value exactly α/5.
	p, err := stats.ChiSquareSF(cv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.01) > 1e-9 {
		t.Errorf("SF(critical) = %v, want 0.01", p)
	}
}

func TestSignificantThresholdEdge(t *testing.T) {
	// Find a vector whose p-value straddles the cutoff and check both
	// sides of Significant.
	weak, err := Test(Vector{3, 1, 1, 1, 0}, Monoploid)
	if err != nil {
		t.Fatal(err)
	}
	strong, err := Test(Vector{30, 1, 1, 1, 0}, Monoploid)
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := weak.Significant(0.05)
	ss, _ := strong.Significant(0.05)
	if ws {
		t.Errorf("weak evidence significant (p=%g)", weak.PValue)
	}
	if !ss {
		t.Errorf("strong evidence not significant (p=%g)", strong.PValue)
	}
	if _, err := weak.Significant(0); err == nil {
		t.Error("alpha=0 accepted")
	}
}

func TestPloidyString(t *testing.T) {
	if Monoploid.String() != "monoploid" || Diploid.String() != "diploid" {
		t.Error("ploidy names wrong")
	}
	if Ploidy(9).String() != "Ploidy(9)" {
		t.Error("unknown ploidy formatting wrong")
	}
}

func TestOrderTieBreaking(t *testing.T) {
	res, err := Test(Vector{5, 5, 5, 5, 5}, Monoploid)
	if err != nil {
		t.Fatal(err)
	}
	// Ties resolve in channel order for determinism.
	if res.Top != dna.ChA || res.Second != dna.ChC {
		t.Errorf("tie ordering: top=%v second=%v", res.Top, res.Second)
	}
}

// A single discordant read at an otherwise clean position must NOT be
// called heterozygous: the nested het-vs-hom test lacks significance.
func TestSingleErrorReadNotHeterozygous(t *testing.T) {
	res, err := Test(Vector{19, 1, 0, 0, 0}, Diploid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Heterozygous {
		t.Errorf("19:1 split flagged heterozygous (HetStat=%v)", res.HetStat)
	}
	// The position itself is still significant (hom, matching allele).
	sig, _ := res.Significant(0.05)
	if !sig || res.Top != 0 {
		t.Errorf("19:1 position should be a significant hom call: %+v", res)
	}
	// A balanced split at the same depth IS heterozygous.
	bal, err := Test(Vector{10, 10, 0, 0, 0}, Diploid)
	if err != nil {
		t.Fatal(err)
	}
	if !bal.Heterozygous {
		t.Errorf("10:10 split not heterozygous (HetStat=%v)", bal.HetStat)
	}
}

func TestAllelesFieldSetByTest(t *testing.T) {
	hom, _ := Test(Vector{20, 1, 1, 1, 1}, Diploid)
	if hom.Alleles != 1 {
		t.Errorf("hom Alleles = %d", hom.Alleles)
	}
	het, _ := Test(Vector{10, 10, 0, 0, 0}, Diploid)
	if het.Alleles != 2 {
		t.Errorf("het Alleles = %d", het.Alleles)
	}
}

// Statistical calibration under the true null: with counts drawn from
// a uniform multinomial over the five channels, the fraction of
// positions clearing the paper's adjusted cutoff must not exceed the
// nominal family-wise level (the χ²₁ reference with the α/5 adjustment
// is conservative — testing one ordered maximum, adjusted as if five
// independent channels were tested).
func TestNullCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	const positions = 4000
	const depth = 20
	alpha := 0.05
	rejects := 0
	for p := 0; p < positions; p++ {
		var z Vector
		for r := 0; r < depth; r++ {
			z[rng.Intn(dna.NumChannels)]++
		}
		res, err := Test(z, Monoploid)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := res.Significant(alpha)
		if err != nil {
			t.Fatal(err)
		}
		if sig {
			rejects++
		}
	}
	fpr := float64(rejects) / positions
	if fpr > alpha {
		t.Errorf("null false-positive rate %.4f exceeds alpha %.2f (%d/%d)", fpr, alpha, rejects, positions)
	}
}

// The same calibration must hold for the diploid family, whose
// alternative is larger.
func TestNullCalibrationDiploid(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	const positions = 4000
	const depth = 20
	rejects := 0
	for p := 0; p < positions; p++ {
		var z Vector
		for r := 0; r < depth; r++ {
			z[rng.Intn(dna.NumChannels)]++
		}
		res, err := Test(z, Diploid)
		if err != nil {
			t.Fatal(err)
		}
		if sig, _ := res.Significant(0.05); sig {
			rejects++
		}
	}
	if fpr := float64(rejects) / positions; fpr > 0.05 {
		t.Errorf("diploid null false-positive rate %.4f exceeds 0.05", fpr)
	}
}
