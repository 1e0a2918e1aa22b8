package phmm

import (
	"fmt"
	"math"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/pwm"
)

// refAligner is the scalar forward-backward: one pair at a time over
// contiguous row-major planes, with the expression tree every AlignBatch
// lane evaluates. It is the tests' oracle — batch_test.go holds every
// lane to it bit for bit, refFit is Fit on it, and the model-level tests
// (brute-force likelihoods, posterior rows summing to 1, gap mass,
// Viterbi <= forward) check the math on it. It embeds the production
// Aligner for the parameters, the cell count and Viterbi, and keeps the
// per-cell emission plane the production aligners do without; refViterbi
// is the production Viterbi's oracle on that plane.
type refAligner struct {
	*Aligner
	// pstar caches the quality-weighted emissions p*(i,j) for all
	// in-band cells, flattened row-major with stride m+1, filled once
	// per run.
	pstar []float64
	// band geometry of the current run: when banded, only cells with
	// |j - i - diag| <= radius are computed.
	banded bool
	diag   int
	radius int
	// DP matrices, flattened row-major with stride m+1; row i spans
	// [i*(m+1), (i+1)*(m+1)). Only the cells each pass writes are
	// (re-)initialized — see forward/backward — so buffer reuse never
	// leaks stale state into cells a pass reads. In banded runs each
	// pass additionally zeroes one guard cell on each side of a row's
	// band, so band-edge reads of out-of-band neighbours see zero.
	fM, fX, fY []float64
	bM, bX, bY []float64
	// scale[i] is the forward scaling factor of row i (scale[0] = 1).
	scale []float64
	// res is the reusable refResult returned by AlignBanded.
	res refResult
}

func newRefAligner(p Params, mode Mode) (*refAligner, error) {
	a, err := NewAligner(p, mode)
	if err != nil {
		return nil, err
	}
	return &refAligner{Aligner: a}, nil
}

func mustRef(t testing.TB, mode Mode) *refAligner {
	t.Helper()
	a, err := newRefAligner(DefaultParams(), mode)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// rowBounds is bandRowBounds under the aligner's current geometry.
func (a *refAligner) rowBounds(i, m int) (lo, hi int) {
	return bandRowBounds(i, m, a.diag, a.radius, a.banded)
}

// fillEmissions computes p*(i,j) = Σ_k r_ik·p(k|y_j) for every in-band
// cell of the current geometry into a.pstar, which must hold (n+1)·(m+1)
// cells. Out-of-band cells keep whatever an earlier run left there; no
// pass reads them.
func (a *refAligner) fillEmissions(x *pwm.Matrix, y dna.Seq, n, m int) {
	w := m + 1
	mean := &a.emit[dna.N]
	for i := 1; i <= n; i++ {
		lo, hi := a.rowBounds(i, m)
		if lo > hi {
			continue
		}
		row := x.Row(i - 1) // PWM is 0-based
		out := a.pstar[i*w+lo : i*w+hi+1]
		for jj := range out {
			yj := y[lo-1+jj]
			if yj.IsConcrete() {
				mr := &a.params.Match[yj]
				out[jj] = row[dna.A]*mr[dna.A] + row[dna.C]*mr[dna.C] + row[dna.G]*mr[dna.G] + row[dna.T]*mr[dna.T]
			} else {
				out[jj] = row[dna.A]*mean[dna.A] + row[dna.C]*mean[dna.C] + row[dna.G]*mean[dna.G] + row[dna.T]*mean[dna.T]
			}
		}
	}
}

// refViterbi is ViterbiBanded over a per-cell emission plane: it fills
// p*(i,j) for every in-band cell and takes one math.Log per cell, where
// the production Viterbi takes a row's five log emissions once. It
// shares the embedded Aligner's DP buffers and Path.
func (a *refAligner) refViterbi(x *pwm.Matrix, y dna.Seq, diag, band int) (*Path, error) {
	n, m := x.Len(), len(y)
	if n == 0 || m == 0 {
		return nil, fmt.Errorf("phmm: empty read (%d) or window (%d)", n, m)
	}
	a.banded = band > 0
	a.diag = diag
	a.radius = band / 2
	a.cells += int64(BandCells(n, m, diag, band))
	p := a.params
	w := m + 1
	size := (n + 1) * w
	if cap(a.pstar) < size {
		a.pstar = make([]float64, size)
	}
	a.pstar = a.pstar[:size]
	a.fillEmissions(x, y, n, m)
	a.resizeViterbi(size)
	vM, vX, vY := a.vM, a.vX, a.vY
	ptrM, ptrX, ptrY := a.ptrM, a.ptrX, a.ptrY
	negInf := math.Inf(-1)
	logTMM, logTMG := math.Log(p.TMM), math.Log(p.TMG)
	logTGM, logTGG := math.Log(p.TGM), math.Log(p.TGG)
	logQ := math.Log(p.Q)

	// Row-0 border over the cells row 1 reads. Every in-band cell is
	// written unconditionally below, so no bulk -Inf fill is needed —
	// only the borders and per-row band guards (mirroring forward's
	// zero guards, with -Inf as the additive identity).
	lo1, hi1 := a.rowBounds(1, m)
	for j := lo1 - 1; j <= hi1; j++ {
		vM[j], vX[j], vY[j] = negInf, negInf, negInf
	}
	if a.mode == Global {
		vM[0] = 0 // virtual begin
	}
	for i := 1; i <= n; i++ {
		lo, hi := a.rowBounds(i, m)
		if lo > hi {
			return nil, ErrNoAlignment
		}
		prev, cur := (i-1)*w, i*w
		// Left guard (same role as forward's).
		vM[cur+lo-1], vX[cur+lo-1], vY[cur+lo-1] = negInf, negInf, negInf
		for j := lo; j <= hi; j++ {
			lps := math.Log(a.pstar[cur+j])
			// M state.
			best, from := negInf, stNone
			if v := logTMM + vM[prev+j-1]; v > best {
				best, from = v, stM
			}
			if v := logTGM + vX[prev+j-1]; v > best {
				best, from = v, stX
			}
			if v := logTGM + vY[prev+j-1]; v > best {
				best, from = v, stY
			}
			if a.mode == SemiGlobal && i == 1 && best < 0 {
				// Free entry with unit weight (log 0 = 0 contribution).
				best, from = 0, stBegin
			}
			if from != stNone {
				vM[cur+j] = lps + best
				ptrM[cur+j] = from
			} else {
				vM[cur+j] = negInf
			}
			// GX state.
			best, from = negInf, stNone
			if v := logTMG + vM[prev+j]; v > best {
				best, from = v, stM
			}
			if v := logTGG + vX[prev+j]; v > best {
				best, from = v, stX
			}
			if from != stNone {
				vX[cur+j] = logQ + best
				ptrX[cur+j] = from
			} else {
				vX[cur+j] = negInf
			}
			// GY state.
			best, from = negInf, stNone
			if v := logTMG + vM[cur+j-1]; v > best {
				best, from = v, stM
			}
			if v := logTGG + vY[cur+j-1]; v > best {
				best, from = v, stY
			}
			if from != stNone {
				vY[cur+j] = logQ + best
				ptrY[cur+j] = from
			} else {
				vY[cur+j] = negInf
			}
		}
		// Right guard.
		if hi < m {
			vM[cur+hi+1], vX[cur+hi+1], vY[cur+hi+1] = negInf, negInf, negInf
		}
	}
	// Pick the terminal cell.
	last := n * w
	lon, hin := a.rowBounds(n, m)
	bestScore, bestJ, bestState := negInf, 0, stNone
	if a.mode == Global {
		if hin != m {
			return nil, ErrNoAlignment
		}
		bestJ = m
		for _, s := range [...]struct {
			v  float64
			st viterbiState
		}{{vM[last+m], stM}, {vX[last+m], stX}, {vY[last+m], stY}} {
			if s.v > bestScore {
				bestScore, bestState = s.v, s.st
			}
		}
	} else {
		for j := lon; j <= hin; j++ {
			if vM[last+j] > bestScore {
				bestScore, bestJ, bestState = vM[last+j], j, stM
			}
			if vX[last+j] > bestScore {
				bestScore, bestJ, bestState = vX[last+j], j, stX
			}
		}
	}
	if bestState == stNone || math.IsInf(bestScore, -1) {
		return nil, ErrNoAlignment
	}
	// Traceback.
	rev := a.opsRev[:0]
	i, j, st := n, bestJ, bestState
	for {
		var from viterbiState
		switch st {
		case stM:
			from = ptrM[i*w+j]
			rev = append(rev, OpMatch)
			i, j = i-1, j-1
		case stX:
			from = ptrX[i*w+j]
			rev = append(rev, OpInsert)
			i = i - 1
		case stY:
			from = ptrY[i*w+j]
			rev = append(rev, OpDelete)
			j = j - 1
		}
		if from == stBegin || (i == 0 && j == 0) {
			break
		}
		if i < 0 || j < 0 {
			a.opsRev = rev
			return nil, fmt.Errorf("phmm: viterbi traceback escaped the matrix at (%d,%d)", i, j)
		}
		st = from
	}
	a.opsRev = rev
	// Reverse ops into the reusable output slice.
	if cap(a.ops) < len(rev) {
		a.ops = make([]Op, len(rev))
	}
	ops := a.ops[:len(rev)]
	for k := range rev {
		ops[k] = rev[len(rev)-1-k]
	}
	start := j + 1
	a.path = Path{LogProb: bestScore, Start: start, End: bestJ, Ops: ops}
	return &a.path, nil
}

// refResult is a completed scalar alignment: a view into the
// refAligner's buffers, valid only until its next AlignBanded call.
type refResult struct {
	a *refAligner
	// N is the read length, M the window length.
	N, M int
	// LogLik is the natural-log total alignment likelihood, summed
	// over all alignments admitted by the mode's boundary conditions
	// (and, in banded runs, by the band).
	LogLik float64
	// lScaled is the terminal sum in scaled space; posteriors divide
	// by it.
	lScaled float64
	x       *pwm.Matrix
	y       dna.Seq
	// band geometry snapshot (see Aligner).
	banded       bool
	diag, radius int
}

// rowBounds is bandRowBounds under the result's geometry.
func (r *refResult) rowBounds(i int) (lo, hi int) {
	return bandRowBounds(i, r.M, r.diag, r.radius, r.banded)
}

// inBand reports whether cell (i, j) was computed by the run.
func (r *refResult) inBand(i, j int) bool {
	lo, hi := r.rowBounds(i)
	return j >= lo && j <= hi
}

// Align is AlignBanded over the full DP rectangle.
func (a *refAligner) Align(x *pwm.Matrix, y dna.Seq) (*refResult, error) {
	return a.AlignBanded(x, y, 0, 0)
}

// AlignBanded runs the scaled forward and backward algorithms over the
// band |j - i - diag| <= band/2 (band <= 0: the whole rectangle), the
// geometry AlignBatch takes.
func (a *refAligner) AlignBanded(x *pwm.Matrix, y dna.Seq, diag, band int) (*refResult, error) {
	n, m := x.Len(), len(y)
	if n == 0 || m == 0 {
		return nil, fmt.Errorf("phmm: empty read (%d) or window (%d)", n, m)
	}
	a.banded = band > 0
	a.diag = diag
	a.radius = band / 2
	a.cells += int64(BandCells(n, m, diag, band))
	a.resize(n, m)
	a.fillEmissions(x, y, n, m)
	if err := a.forward(n, m); err != nil {
		return nil, err
	}
	lScaled := a.terminalSum(n, m)
	if lScaled <= 0 {
		return nil, ErrNoAlignment
	}
	a.backward(n, m)
	logLik := math.Log(lScaled)
	for i := 1; i <= n; i++ {
		logLik += math.Log(a.scale[i])
	}
	a.res = refResult{
		a: a, N: n, M: m, LogLik: logLik, lScaled: lScaled, x: x, y: y,
		banded: a.banded, diag: a.diag, radius: a.radius,
	}
	return &a.res, nil
}

// resize grows the DP buffers and the emission cache to (n+1)×(m+1)
// without clearing them; forward and backward initialize exactly the
// cells they depend on.
func (a *refAligner) resize(n, m int) {
	need := (n + 1) * (m + 1)
	if cap(a.fM) < need {
		a.fM = make([]float64, need)
		a.fX = make([]float64, need)
		a.fY = make([]float64, need)
		a.bM = make([]float64, need)
		a.bX = make([]float64, need)
		a.bY = make([]float64, need)
	}
	if cap(a.pstar) < need {
		a.pstar = make([]float64, need)
	}
	a.fM = a.fM[:need]
	a.fX = a.fX[:need]
	a.fY = a.fY[:need]
	a.bM = a.bM[:need]
	a.bX = a.bX[:need]
	a.bY = a.bY[:need]
	a.pstar = a.pstar[:need]
	if cap(a.scale) < n+1 {
		a.scale = make([]float64, n+1)
	}
	a.scale = a.scale[:n+1]
}

// forward fills the scaled forward matrices and a.scale over the band.
func (a *refAligner) forward(n, m int) error {
	p := a.params
	w := m + 1
	a.scale[0] = 1
	fM, fX, fY, ps := a.fM, a.fX, a.fY, a.pstar
	// Initialize the row-0 border cells row 1 reads: columns
	// [lo(1)-1, hi(1)] (the recursion reads (0, j-1) and (0, j)).
	lo1, hi1 := a.rowBounds(1, m)
	for j := lo1 - 1; j <= hi1; j++ {
		fM[j], fX[j], fY[j] = 0, 0, 0
	}
	if a.mode == Global {
		fM[0] = 1 // virtual begin at (0,0)
	}
	entry := 0.0
	if a.mode == SemiGlobal {
		// Free entry: the first read base may match any window
		// position with unit prior weight.
		entry = 1
	}
	for i := 1; i <= n; i++ {
		lo, hi := a.rowBounds(i, m)
		if lo > hi {
			// The band slid off the DP rectangle: no admissible path.
			return ErrNoAlignment
		}
		prev := (i - 1) * w
		cur := i * w
		// Left guard: the GY recursion reads (i, lo-1), and row i+1
		// reads (i, lo(i+1)-1) which is at least lo-1. (At lo == 1
		// this is the column-0 border the full kernel zeroes.)
		fM[cur+lo-1], fX[cur+lo-1], fY[cur+lo-1] = 0, 0, 0
		rowSum := 0.0
		rowEntry := 0.0
		if i == 1 {
			rowEntry = entry
		}
		for j := lo; j <= hi; j++ {
			// Match: all predecessors at (i-1, j-1).
			mm := p.TMM*fM[prev+j-1] + p.TGM*(fX[prev+j-1]+fY[prev+j-1]) + rowEntry
			fm := ps[cur+j] * mm
			// GX consumes a read base: predecessors at (i-1, j).
			fx := p.Q * (p.TMG*fM[prev+j] + p.TGG*fX[prev+j])
			// GY consumes a genome base: predecessors at (i, j-1),
			// within the current row (already computed this sweep).
			fy := p.Q * (p.TMG*fM[cur+j-1] + p.TGG*fY[cur+j-1])
			fM[cur+j] = fm
			fX[cur+j] = fx
			fY[cur+j] = fy
			rowSum += fm + fx + fy
		}
		// GX at column 0 (read base before any genome base) is only
		// reachable in Global mode from the virtual begin; the paper
		// zeroes the border, and we follow it: nothing to compute.
		if rowSum <= 0 {
			return ErrNoAlignment
		}
		a.scale[i] = rowSum
		inv := 1 / rowSum
		for j := lo; j <= hi; j++ {
			fM[cur+j] *= inv
			fX[cur+j] *= inv
			fY[cur+j] *= inv
		}
		// Right guard: row i+1's band may extend one column past hi
		// and read (i, hi+1); out-of-band means zero.
		if hi < m {
			fM[cur+hi+1], fX[cur+hi+1], fY[cur+hi+1] = 0, 0, 0
		}
	}
	return nil
}

// terminalSum returns the scaled-space total likelihood: the sum over
// terminal cells admitted by the mode (and the band).
func (a *refAligner) terminalSum(n, m int) float64 {
	w := m + 1
	last := n * w
	lo, hi := a.rowBounds(n, m)
	if a.mode == Global {
		if hi != m {
			// The terminal cell (n, m) is outside the band.
			return 0
		}
		return a.fM[last+m] + a.fX[last+m] + a.fY[last+m]
	}
	// SemiGlobal: read fully consumed, trailing genome free. Terminal
	// states are M and GX at any column (a terminal GY would be a paid
	// deletion followed by free bases — pointless, excluded).
	sum := 0.0
	for j := lo; j <= hi; j++ {
		sum += a.fM[last+j] + a.fX[last+j]
	}
	return sum
}

// backward fills the backward matrices over the band, scaled with the
// forward row scales so that posterior(i,j) = f(i,j)·b(i,j)/lScaled
// directly.
func (a *refAligner) backward(n, m int) {
	p := a.params
	w := m + 1
	lastRow := n * w
	bM, bX, bY, ps := a.bM, a.bX, a.bY, a.pstar
	lon, hin := a.rowBounds(n, m)
	// Terminal conditions on row n. Every row-n cell this pass (or the
	// posterior accessors) reads is set explicitly here, including the
	// zeros — buffers are reused across alignments.
	if a.mode == Global {
		// terminalSum already required hin == m here.
		for j := lon; j < m; j++ {
			bM[lastRow+j], bX[lastRow+j], bY[lastRow+j] = 0, 0, 0
		}
		bM[lastRow+m] = 1
		bX[lastRow+m] = 1
		bY[lastRow+m] = 1
		// Row n, right-to-left: trailing genome bases must still be
		// consumed through GY (no GX→GY transition exists, so bX
		// stays 0 left of column m).
		for j := m - 1; j >= lon; j-- {
			bY[lastRow+j] = p.TGG * p.Q * bY[lastRow+j+1]
			bM[lastRow+j] = p.TMG * p.Q * bY[lastRow+j+1]
		}
	} else {
		for j := lon; j <= hin; j++ {
			bM[lastRow+j] = 1
			bX[lastRow+j] = 1
			// GY is not a terminal state in SemiGlobal.
			bY[lastRow+j] = 0
		}
	}
	// Row-n band guards for row n-1's reads at (n, lo(n-1)..hi(n-1)+1).
	bM[lastRow+lon-1], bX[lastRow+lon-1], bY[lastRow+lon-1] = 0, 0, 0
	if hin < m {
		bM[lastRow+hin+1], bX[lastRow+hin+1], bY[lastRow+hin+1] = 0, 0, 0
	}
	for i := n - 1; i >= 1; i-- {
		lo, hi := a.rowBounds(i, m)
		cur := i * w
		next := (i + 1) * w
		invS := 1 / a.scale[i+1]
		start := hi
		if hi == m {
			// Column m has no diagonal or GY continuation.
			bxm := bX[next+m] * invS
			bM[cur+m] = p.TMG * p.Q * bxm
			bX[cur+m] = p.TGG * p.Q * bxm
			bY[cur+m] = 0
			start = m - 1
		} else {
			// Right guard: this row's GY term reads (i, hi+1), and row
			// i-1 may read it too; out-of-band means zero.
			bM[cur+hi+1], bX[cur+hi+1], bY[cur+hi+1] = 0, 0, 0
		}
		for j := start; j >= lo; j-- {
			diag := ps[next+j+1] * bM[next+j+1] * invS // through M at (i+1, j+1)
			bx := bX[next+j] * invS                    // through GX at (i+1, j)
			by := bY[cur+j+1]                          // through GY at (i, j+1), same row
			bM[cur+j] = p.TMM*diag + p.TMG*p.Q*bx + p.TMG*p.Q*by
			bX[cur+j] = p.TGM*diag + p.TGG*p.Q*bx
			bY[cur+j] = p.TGM*diag + p.TGG*p.Q*by
		}
		// Left guard for row i-1's reads at (i, lo(i-1)..).
		bM[cur+lo-1], bX[cur+lo-1], bY[cur+lo-1] = 0, 0, 0
	}
}

// PostMatch returns the posterior probability that read base i is
// aligned to window base j (both 1-based), marginalized over all
// alignments: P(x_i ◇ y_j | x, y) = f_M(i,j)·b_M(i,j)/P(x,y).
// Out-of-band cells of a banded run carry no posterior mass.
func (r *refResult) PostMatch(i, j int) float64 {
	if !r.inBand(i, j) {
		return 0
	}
	idx := i*(r.M+1) + j
	return r.a.fM[idx] * r.a.bM[idx] / r.lScaled
}

// PostGapX returns the posterior probability that read base i is
// aligned to a gap between window bases j and j+1 (an insertion in the
// read): P(x_i ◇ G_j | x, y).
func (r *refResult) PostGapX(i, j int) float64 {
	if !r.inBand(i, j) {
		return 0
	}
	idx := i*(r.M+1) + j
	return r.a.fX[idx] * r.a.bX[idx] / r.lScaled
}

// PostGapY returns the posterior probability that window base j is
// aligned to a gap between read bases i and i+1 (a deletion in the
// read): P(y_j ◇ G_i | x, y).
func (r *refResult) PostGapY(i, j int) float64 {
	if !r.inBand(i, j) {
		return 0
	}
	idx := i*(r.M+1) + j
	return r.a.fY[idx] * r.a.bY[idx] / r.lScaled
}

// Contribution computes the z-vector of this read at window position j
// (1-based): the five channel probabilities (A, C, G, T, gap) that the
// read aligns each to the position, normalized to sum to 1 when the
// position receives any mass (paper §VI Step 2). The returned total is
// the unnormalized mass, used by callers to skip untouched positions.
func (r *refResult) Contribution(j int, attr Attribution) (z [dna.NumChannels]float64, total float64) {
	for i := 1; i <= r.N; i++ {
		pm := r.PostMatch(i, j)
		if pm > 0 {
			switch attr {
			case ByPWM:
				row := r.x.Row(i - 1)
				for k := 0; k < dna.NumBases; k++ {
					z[k] += pm * row[k]
				}
			default:
				call := r.x.Call(i - 1)
				if call.IsConcrete() {
					z[call] += pm
				} else {
					for k := 0; k < dna.NumBases; k++ {
						z[k] += pm / dna.NumBases
					}
				}
			}
		}
		// A read-gap (GY) at (i, j) aligns window base j to a gap.
		z[dna.ChGap] += r.PostGapY(i, j)
	}
	for k := range z {
		total += z[k]
	}
	if total > 1e-12 {
		inv := 1 / total
		for k := range z {
			z[k] *= inv
		}
	} else {
		z = [dna.NumChannels]float64{}
	}
	return z, total
}

// ContributionsInto fills dst[j-1] with the normalized z-vector for
// every window position j and totals[j-1] with its unnormalized mass —
// equivalent to calling Contribution for every j but in one row-major
// sweep over the in-band posterior cells. dst and totals must have
// length M.
func (r *refResult) ContributionsInto(attr Attribution, dst [][dna.NumChannels]float64, totals []float64) error {
	if len(dst) != r.M || len(totals) != r.M {
		return fmt.Errorf("phmm: ContributionsInto needs length %d, got %d/%d", r.M, len(dst), len(totals))
	}
	for j := range dst {
		dst[j] = [dna.NumChannels]float64{}
	}
	w := r.M + 1
	inv := 1 / r.lScaled
	fM, bM, fY, bY := r.a.fM, r.a.bM, r.a.fY, r.a.bY
	for i := 1; i <= r.N; i++ {
		lo, hi := r.rowBounds(i)
		base := i * w
		var row [dna.NumBases]float64
		var call dna.Code
		if attr == ByPWM {
			row = r.x.Row(i - 1)
		} else {
			call = r.x.Call(i - 1)
		}
		for j := lo; j <= hi; j++ {
			pm := fM[base+j] * bM[base+j] * inv
			if pm > 0 {
				z := &dst[j-1]
				if attr == ByPWM {
					for k := 0; k < dna.NumBases; k++ {
						z[k] += pm * row[k]
					}
				} else if call.IsConcrete() {
					z[call] += pm
				} else {
					for k := 0; k < dna.NumBases; k++ {
						z[k] += pm / dna.NumBases
					}
				}
			}
			if gy := fY[base+j] * bY[base+j]; gy > 0 {
				dst[j-1][dna.ChGap] += gy * inv
			}
		}
	}
	normalizeContribs(dst, totals)
	return nil
}

// normalizeContribs turns accumulated z-vectors into ContributionsInto's
// output: totals[j] is column j's mass and dst[j] is divided by it, or
// zeroed where nothing material was accumulated.
func normalizeContribs(dst [][dna.NumChannels]float64, totals []float64) {
	for j := range dst {
		total := 0.0
		for _, v := range dst[j] {
			total += v
		}
		totals[j] = total
		if total > 1e-12 {
			invT := 1 / total
			for k := range dst[j] {
				dst[j][k] *= invT
			}
		} else {
			dst[j] = [dna.NumChannels]float64{}
		}
	}
}

// refFit is Fit with a pair-at-a-time E-step on refAligner: the EM loop
// as it ran before the E-step moved onto AlignBatch.
func refFit(pairs []TrainingPair, init Params, opt TrainOptions) (*TrainResult, error) {
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
	for iter := 1; iter <= opt.MaxIter; iter++ {
		al, err := newRefAligner(cur, opt.Mode)
		if err != nil {
			return nil, err
		}
		var c counts
		for _, pr := range pairs {
			r, err := al.Align(pr.X, pr.Y)
			if err == ErrNoAlignment {
				continue
			}
			if err != nil {
				return nil, err
			}
			c.used++
			c.logLik += r.LogLik
			refAccumulate(r, pr, &c)
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

// refAccumulate is accumulateExpectations on a scalar result's
// contiguous planes.
func refAccumulate(r *refResult, pr TrainingPair, c *counts) {
	a := r.a
	p := a.params
	n, m := r.N, r.M
	w := m + 1
	invL := 1 / r.lScaled
	for i := 1; i <= n; i++ {
		cur := i * w
		next := (i + 1) * w
		var invS float64
		if i < n {
			invS = 1 / a.scale[i+1]
		}
		for j := 1; j <= m; j++ {
			pm := a.fM[cur+j] * a.bM[cur+j] * invL
			if pm > 0 {
				yj := pr.Y[j-1]
				if yj.IsConcrete() {
					row := pr.X.Row(i - 1)
					for k := 0; k < dna.NumBases; k++ {
						c.cMatch[yj][k] += pm * row[k]
					}
				}
			}
			if i < n {
				if j < m {
					psNext := a.pstar[next+j+1]
					toM := psNext * a.bM[next+j+1] * invS * invL
					c.cMM += a.fM[cur+j] * p.TMM * toM
					c.cGM += (a.fX[cur+j] + a.fY[cur+j]) * p.TGM * toM
				}
				toX := p.Q * a.bX[next+j] * invS * invL
				c.cMG += a.fM[cur+j] * p.TMG * toX
				c.cGG += a.fX[cur+j] * p.TGG * toX
			}
			if j < m {
				toY := p.Q * a.bY[cur+j+1] * invL
				c.cMG += a.fM[cur+j] * p.TMG * toY
				c.cGG += a.fY[cur+j] * p.TGG * toY
			}
		}
	}
}
