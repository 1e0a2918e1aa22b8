package phmm

import (
	"fmt"
	"math"

	"gnumap/internal/dna"
	"gnumap/internal/pwm"
)

// The paper fixes its PHMM parameters; this file adds Baum-Welch
// (EM) estimation of the transition probabilities and the match
// emission matrix from example (read, window) pairs — the standard
// extension from the paper's own citation (Durbin et al., ch. 4).
// Training data comes from trusted alignments (e.g. confidently
// uniquely mapped reads), and the fitted parameters feed back into
// core.Config.PHMM.

// TrainingPair is one example alignment problem.
type TrainingPair struct {
	// X is the read PWM, Y the genome window it maps to.
	X *pwm.Matrix
	Y dna.Seq
}

// TrainOptions tunes Fit.
type TrainOptions struct {
	// MaxIter bounds EM iterations (default 20).
	MaxIter int
	// Tol stops EM when the total log-likelihood improves by less
	// than this (default 1e-3 nats).
	Tol float64
	// Pseudocount regularizes every expected count (default 1.0),
	// keeping rare transitions (gap open on clean data) away from 0.
	Pseudocount float64
	// Mode selects the alignment boundary condition (default
	// SemiGlobal, the mapping configuration).
	Mode Mode
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.MaxIter == 0 {
		o.MaxIter = 20
	}
	if o.Tol == 0 {
		o.Tol = 1e-3
	}
	if o.Pseudocount == 0 {
		o.Pseudocount = 1
	}
	return o
}

// TrainResult reports a fit.
type TrainResult struct {
	Params Params
	// LogLik is the total log-likelihood of the training pairs under the
	// parameters the last E-step ran with: the parameters one M-step
	// before Params (init after one iteration). Iters is the number of
	// EM iterations used.
	LogLik float64
	Iters  int
}

// Fit estimates PHMM parameters from training pairs by Baum-Welch,
// starting from init (use DefaultParams for a neutral start). The gap
// emission q is held fixed (it is a modeling constant, not learnable
// from marginals in this parameterization).
//
// Each E-step aligns the pairs in order on one BatchAligner, unbanded:
// every run of up to MaxBatch consecutive pairs that share a read and a
// window length is one AlignBatch call, and the lanes' expected counts
// are added in pair order, so every sum sees the additions a pair-at-a-
// time E-step would make, in the same order.
func Fit(pairs []TrainingPair, init Params, opt TrainOptions) (*TrainResult, error) {
	opt = opt.withDefaults()
	if len(pairs) == 0 {
		return nil, fmt.Errorf("phmm: no training pairs")
	}
	if err := init.Validate(); err != nil {
		return nil, err
	}
	cur := init
	prevLL := math.Inf(-1)
	res := &TrainResult{Params: cur}
	xs := make([]*pwm.Matrix, 0, MaxBatch)
	ys := make([]dna.Seq, 0, MaxBatch)
	for iter := 1; iter <= opt.MaxIter; iter++ {
		ba, err := NewBatchAligner(cur, opt.Mode)
		if err != nil {
			return nil, err
		}
		var c counts
		for lo := 0; lo < len(pairs); {
			n, m := pairs[lo].X.Len(), len(pairs[lo].Y)
			xs, ys = xs[:0], ys[:0]
			for _, pr := range pairs[lo:] {
				if len(xs) == MaxBatch || pr.X.Len() != n || len(pr.Y) != m {
					break
				}
				xs, ys = append(xs, pr.X), append(ys, pr.Y)
			}
			results, err := ba.AlignBatch(xs, ys, 0, 0)
			if err != nil {
				return nil, err
			}
			for l := range results {
				if results[l].Err == ErrNoAlignment {
					continue
				}
				if results[l].Err != nil {
					return nil, results[l].Err
				}
				c.used++
				c.logLik += results[l].LogLik
				accumulateExpectations(&results[l], pairs[lo+l], &c)
			}
			lo += len(xs)
		}
		if c.used == 0 {
			return nil, fmt.Errorf("phmm: no training pair admits an alignment")
		}
		next, err := c.mStep(cur, opt.Pseudocount)
		if err != nil {
			return nil, err
		}
		res.Params = next
		res.LogLik = c.logLik
		res.Iters = iter
		if c.logLik-prevLL < opt.Tol && iter > 1 {
			break
		}
		prevLL = c.logLik
		cur = next
	}
	return res, nil
}

// counts holds one E-step's sums: the expected transition counts out of
// M (to M, and into each gap state) and out of the gap states, the
// expected match emissions cMatch[y][k] of read base k against genome
// base y, and the total log-likelihood of the used pairs.
type counts struct {
	cMM, cMG, cGM, cGG float64
	cMatch             [dna.NumBases][dna.NumBases]float64
	logLik             float64
	used               int
}

// mStep returns the parameters that maximize the expected complete-data
// likelihood of the counts, each regularized by pc pseudocounts; the gap
// emission stays cur.Q.
func (c *counts) mStep(cur Params, pc float64) (Params, error) {
	mDen := c.cMM + 2*c.cMG + 3*pc
	gDen := c.cGM + c.cGG + 2*pc
	next := cur
	next.TMM = (c.cMM + pc) / mDen
	// TMM + 2·TMG must be exactly 1.
	next.TMG = (1 - next.TMM) / 2
	next.TGM = (c.cGM + pc) / gDen
	next.TGG = 1 - next.TGM
	for y := 0; y < dna.NumBases; y++ {
		den := 0.0
		for k := 0; k < dna.NumBases; k++ {
			den += c.cMatch[y][k] + pc
		}
		for k := 0; k < dna.NumBases; k++ {
			next.Match[y][k] = (c.cMatch[y][k] + pc) / den
		}
	}
	if err := next.Validate(); err != nil {
		return Params{}, fmt.Errorf("phmm: EM produced invalid parameters: %w", err)
	}
	return next, nil
}

// accumulateExpectations adds one live lane's exact expected transition
// and emission counts, using the standard edge posteriors
//
//	E[a(i,j) -> b(i',j')] = f_a(i,j) · T_ab · e_b(i',j') · b_b(i',j') / L
//
// evaluated in the batch's scaled space (row-scale bookkeeping: crossing
// from row i to i+1 divides by the lane's scale of row i+1; within-row GY
// moves carry no scale factor), read straight off the lane's cells of the
// striped planes. Emission counts come from the match posteriors
// directly. The lane must come from an unbanded AlignBatch, so every cell
// of the rectangle is computed.
func accumulateExpectations(r *BatchResult, pr TrainingPair, c *counts) {
	const L = simdLanes
	b := r.b
	p := b.params
	n, m := r.N, r.M
	w := m + 1
	fM, fX, fY := b.fM[r.lane:], b.fX[r.lane:], b.fY[r.lane:]
	bM, bX, bY := b.bM[r.lane:], b.bX[r.lane:], b.bY[r.lane:]
	ps, scale := b.pstar[r.lane:], b.scale[r.lane:]
	invL := 1 / r.lScaled
	for i := 1; i <= n; i++ {
		cur := i * w
		next := (i + 1) * w
		var invS float64
		if i < n {
			invS = 1 / scale[(i+1)*L]
		}
		for j := 1; j <= m; j++ {
			at := (cur + j) * L
			// Emission counts from the match posterior.
			pm := fM[at] * bM[at] * invL
			if pm > 0 {
				yj := pr.Y[j-1]
				if yj.IsConcrete() {
					row := pr.X.Row(i - 1)
					for k := 0; k < dna.NumBases; k++ {
						c.cMatch[yj][k] += pm * row[k]
					}
				}
			}
			// Transitions into row i+1 (consume a read base).
			if i < n {
				if j < m {
					toM := ps[(next+j+1)*L] * bM[(next+j+1)*L] * invS * invL
					c.cMM += fM[at] * p.TMM * toM
					c.cGM += (fX[at] + fY[at]) * p.TGM * toM
				}
				toX := p.Q * bX[(next+j)*L] * invS * invL
				c.cMG += fM[at] * p.TMG * toX
				c.cGG += fX[at] * p.TGG * toX
			}
			// Within-row GY transitions (consume a genome base).
			if j < m {
				toY := p.Q * bY[(cur+j+1)*L] * invL
				c.cMG += fM[at] * p.TMG * toY
				c.cGG += fY[at] * p.TGG * toY
			}
		}
	}
}
