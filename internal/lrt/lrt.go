// Package lrt implements GNUMAP-SNP's likelihood ratio tests for base
// and SNP calling (paper §V-C and §VI Step 3).
//
// For each genomic position the mapper accumulates a vector
// z = (z_A, z_C, z_G, z_T, z_gap) of (continuous) read-base
// contributions. The tests compare the null hypothesis that all five
// channel proportions are equal (pure background: p_k = 0.2 for all k)
// against alternatives in which the top one (monoploid / homozygous) or
// top two (diploid heterozygous) proportions rise above a shared
// background. The statistic -2·log λ(z) is referred to the χ²₁
// distribution, with the paper's α/5 Bonferroni adjustment for testing
// five channels against the background.
package lrt

import (
	"fmt"
	"math"

	"gnumap/internal/dna"
	"gnumap/internal/stats"
)

// Vector is a per-position channel accumulation (A, C, G, T, gap).
type Vector = [dna.NumChannels]float64

// Ploidy selects the hypothesis family.
type Ploidy int

const (
	// Monoploid tests a single dominant channel (paper Eq. 1).
	Monoploid Ploidy = iota
	// Diploid additionally allows two equally dominant channels, the
	// heterozygous alternative (paper Eq. 2).
	Diploid
)

// String returns the ploidy name.
func (p Ploidy) String() string {
	switch p {
	case Monoploid:
		return "monoploid"
	case Diploid:
		return "diploid"
	default:
		return fmt.Sprintf("Ploidy(%d)", int(p))
	}
}

// Result is the outcome of a likelihood ratio test at one position.
type Result struct {
	// Stat is -2·log λ(z), asymptotically χ²₁ under the null.
	Stat float64
	// PValue is the null probability of the observed statistic. For
	// the diploid test the alternative is a *union* of k = 2
	// one-parameter families and Stat is their maximum, so the χ²₁
	// tail is union-bounded: PValue = min(1, k·SF(Stat)). Without
	// this factor the diploid test runs anticonservative under the
	// null (measured ~6.5% rejections at nominal 5%, depth 20); the
	// calibration tests pin the corrected behaviour.
	PValue float64
	// N is the total accumulated mass (the paper's n).
	N float64
	// Top is the channel with the largest contribution, z_(5).
	Top dna.Channel
	// Second is the runner-up channel, z_(4).
	Second dna.Channel
	// HetStat is the het-vs-hom statistic 2·(logLik_het - logLik_hom)
	// under the *constrained* heterozygous model (see Heterozygous).
	// Zero for monoploid tests, and clamped at zero when the
	// homozygous model fits better.
	HetStat float64
	// Alleles is the number of equally dominant channels in the
	// winning alternative (1 for homozygous, 2 for heterozygous).
	Alleles int
	// MinorFraction is z(4)/n, the runner-up channel's share of the
	// total mass — the allele balance callers use to separate true
	// heterozygosity (≈0.5) from error pileups (≈ the error rate).
	MinorFraction float64
	// Heterozygous reports that the heterozygous alternative fits
	// better than the homozygous one. The paper's Eq. 2 states the
	// heterozygous hypothesis as p(5) = p(4) > rest, but its MLE
	// formulas leave p̃(5) and p̃(4) unconstrained; the unconstrained
	// family strictly dominates the homozygous one whenever any
	// off-channel mass exists (z₄·log 4 > 0), so a couple of
	// sequencing errors at a clean position would flip every such
	// position to a false heterozygous SNP. We therefore use the MLE
	// of the hypothesis as *stated*: p̃(5) = p̃(4) = (z₅+z₄)/(2n).
	// Both models then have one free parameter and the flag is a
	// straight likelihood comparison. Always false for monoploid
	// tests. (Discrepancy documented in DESIGN.md §3.)
	Heterozygous bool
}

// background is the null proportion for each of the five channels.
const background = 0.2

// xlogy returns x·log(y) with the measure-theoretic convention
// 0·log(0) = 0, which the MLE plug-ins require at the boundary.
func xlogy(x, y float64) float64 {
	if x == 0 {
		return 0
	}
	return x * math.Log(y)
}

// order returns channel indices sorted by descending z, ties broken by
// channel order for determinism.
func order(z Vector) [dna.NumChannels]int {
	idx := [dna.NumChannels]int{0, 1, 2, 3, 4}
	// Insertion sort on five elements.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := idx[j-1], idx[j]
			if z[b] > z[a] {
				idx[j-1], idx[j] = b, a
			} else {
				break
			}
		}
	}
	return idx
}

// Test runs the likelihood ratio test for the given ploidy on one
// accumulation vector. A vector with no mass (n = 0) is a valid
// observation of nothing: it returns Stat 0 and PValue 1.
func Test(z Vector, ploidy Ploidy) (Result, error) {
	if ploidy != Monoploid && ploidy != Diploid {
		return Result{}, fmt.Errorf("lrt: unknown ploidy %d", int(ploidy))
	}
	var n float64
	for k, v := range z {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return Result{}, fmt.Errorf("lrt: channel %v has invalid mass %g", dna.Channel(k), v)
		}
		n += v
	}
	idx := order(z)
	res := Result{
		N:       n,
		Top:     dna.Channel(idx[0]),
		Second:  dna.Channel(idx[1]),
		Alleles: 1,
	}
	if n == 0 {
		res.PValue = 1
		return res, nil
	}
	z5 := z[idx[0]]
	res.MinorFraction = z[idx[1]] / n
	logNull := n * math.Log(background)

	// Homozygous alternative: p(5) = z5/n, the rest share the remainder
	// across the four other channels.
	p5 := z5 / n
	p4 := (n - z5) / (4 * n)
	logHom := xlogy(z5, p5) + xlogy(n-z5, p4)

	logAlt := logHom
	if ploidy == Diploid {
		// Heterozygous alternative as stated by Eq. 2: the two top
		// channels share a common proportion, remaining three share
		// the rest.
		z4 := z[idx[1]]
		p45 := (z5 + z4) / (2 * n)
		rest := n - z5 - z4
		pt3 := rest / (3 * n)
		logHet := xlogy(z5+z4, p45) + xlogy(rest, pt3)
		if logHet > logAlt {
			logAlt = logHet
			res.Heterozygous = true
			res.Alleles = 2
		}
		res.HetStat = 2 * (logHet - logHom)
		if res.HetStat < 0 {
			res.HetStat = 0
		}
	}
	stat := -2 * (logNull - logAlt) // -2 log λ, λ = null/alt
	if stat < 0 {
		// The alternative families nest the null, so λ <= 1; tiny
		// negative values are pure floating-point noise.
		stat = 0
	}
	res.Stat = stat
	p, err := stats.ChiSquareSF(stat, 1)
	if err != nil {
		return Result{}, err
	}
	if ploidy == Diploid {
		p *= 2 // union bound over the hom and het families
		if p > 1 {
			p = 1
		}
	}
	res.PValue = p
	return res, nil
}

// AdjustedPValueCutoff returns the per-test p-value threshold at the
// paper's adjusted level, α/5, accounting for the five per-channel
// background comparisons (as a statistic: the χ²₁ (1 - α/5) quantile).
func AdjustedPValueCutoff(alpha float64) (float64, error) {
	return stats.BonferroniAlpha(alpha, dna.NumChannels)
}

// Significant reports whether the result clears the paper's adjusted
// cutoff at family-wise level alpha.
func (r Result) Significant(alpha float64) (bool, error) {
	cut, err := AdjustedPValueCutoff(alpha)
	if err != nil {
		return false, err
	}
	return r.PValue <= cut, nil
}
