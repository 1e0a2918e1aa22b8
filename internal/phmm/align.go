package phmm

import (
	"errors"
	"fmt"
	"math"

	"gnumap/internal/dna"
	"gnumap/internal/pwm"
)

// ErrNoAlignment is returned when the model assigns zero probability to
// every alignment of the read and window (possible with degenerate
// parameters, e.g. a one-hot PWM against a mismatching window in Global
// mode with a zero-probability Match entry, or when a band excludes
// every admissible alignment).
var ErrNoAlignment = errors.New("phmm: no alignment with non-zero probability")

// Aligner runs forward-backward alignments. It owns reusable DP
// buffers: one Aligner per goroutine; Align results are views into
// those buffers and are invalidated by the next Align call.
type Aligner struct {
	params Params
	mode   Mode
	mean   [dna.NumBases]float64

	// DP matrices, flattened row-major with stride m+1; row i spans
	// [i*(m+1), (i+1)*(m+1)). Only the cells each pass writes are
	// (re-)initialized — see forward/backward — so buffer reuse never
	// leaks stale state into cells a pass reads. In banded runs each
	// pass additionally zeroes one guard cell on each side of a row's
	// band, so band-edge reads of out-of-band neighbours see zero.
	fM, fX, fY []float64
	bM, bX, bY []float64
	// pstar caches the quality-weighted emissions p*(i,j) for all
	// in-band cells, filled once per Align and shared by both passes
	// (row i spans the same flat layout as the DP matrices).
	pstar []float64
	// scale[i] is the forward scaling factor of row i (scale[0] = 1).
	scale []float64

	// band geometry of the current run: when banded, only cells with
	// |j - i - diag| <= radius are computed. Set per Align/Viterbi call.
	banded bool
	diag   int
	radius int

	// cells accumulates the DP cells computed (per pass geometry, not
	// per pass count) across the aligner's lifetime — the kernel-work
	// measure observability reports as phmm.cells.
	cells int64

	// res is the reusable Result returned by Align; vres/path/ops are
	// the Viterbi DP state and reusable output (see viterbi.go).
	res Result

	vM, vX, vY       []float64
	ptrM, ptrX, ptrY []viterbiState
	path             Path
	ops, opsRev      []Op
}

// NewAligner returns an Aligner with validated parameters.
func NewAligner(p Params, mode Mode) (*Aligner, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if mode != Global && mode != SemiGlobal {
		return nil, fmt.Errorf("phmm: unknown mode %d", int(mode))
	}
	return &Aligner{params: p, mode: mode, mean: p.meanMatch()}, nil
}

// Params returns the aligner's parameter set.
func (a *Aligner) Params() Params { return a.params }

// Mode returns the aligner's boundary-condition mode.
func (a *Aligner) Mode() Mode { return a.mode }

// CellsComputed returns the cumulative DP cells this aligner has
// computed across all Align/Viterbi calls (band geometry per call, so a
// banded call counts only its in-band cells). Callers tracking per-read
// work should difference successive values.
func (a *Aligner) CellsComputed() int64 { return a.cells }

// Result is a completed forward-backward alignment. It is a view into
// the Aligner's buffers: valid only until the next Align call on the
// same Aligner (the Result struct itself is also reused).
type Result struct {
	a *Aligner
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

// bandRowBounds returns the inclusive column range [lo, hi] of row i
// that a banded run computes: the cells with |j - i - diag| <= radius,
// clipped to [1, m]. An empty intersection returns lo > hi. With
// banded == false the whole row [1, m] is returned.
func bandRowBounds(i, m, diag, radius int, banded bool) (lo, hi int) {
	if !banded {
		return 1, m
	}
	lo = i + diag - radius
	hi = i + diag + radius
	if lo < 1 {
		lo = 1
	}
	if hi > m {
		hi = m
	}
	return lo, hi
}

// rowBounds is bandRowBounds under the aligner's current geometry.
func (a *Aligner) rowBounds(i, m int) (lo, hi int) {
	return bandRowBounds(i, m, a.diag, a.radius, a.banded)
}

// rowBounds is bandRowBounds under the result's geometry.
func (r *Result) rowBounds(i int) (lo, hi int) {
	return bandRowBounds(i, r.M, r.diag, r.radius, r.banded)
}

// inBand reports whether cell (i, j) was computed by the run.
func (r *Result) inBand(i, j int) bool {
	lo, hi := r.rowBounds(i)
	return j >= lo && j <= hi
}

// BandCells returns the number of DP cells one pass of a banded
// alignment of an n-base read against an m-base window computes — the
// full n·m rectangle when band <= 0. Benchmarks use it to report
// ns/cell.
func BandCells(n, m, diag, band int) int {
	if band <= 0 {
		return n * m
	}
	cells := 0
	for i := 1; i <= n; i++ {
		lo, hi := bandRowBounds(i, m, diag, band/2, true)
		if lo <= hi {
			cells += hi - lo + 1
		}
	}
	return cells
}

// Align runs the scaled forward and backward algorithms for read PWM x
// against genome window y over the full DP rectangle and returns the
// posterior view.
func (a *Aligner) Align(x *pwm.Matrix, y dna.Seq) (*Result, error) {
	return a.AlignBanded(x, y, 0, 0)
}

// AlignBanded is Align restricted to a diagonal band: only cells with
// |j - i - diag| <= band/2 are computed, where diag is the expected
// offset between window column j and read row i (for a window that
// starts pad bases before the read's seeded position, diag = pad).
// band is the total band width in DP cells; band <= 0 disables banding
// and reproduces Align bit-for-bit. The likelihood is then marginal
// over in-band alignments only — for a band wide enough to contain the
// probable alignments the difference is negligible, while the DP cost
// drops from n·m to ~n·band.
func (a *Aligner) AlignBanded(x *pwm.Matrix, y dna.Seq, diag, band int) (*Result, error) {
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
	a.res = Result{
		a: a, N: n, M: m, LogLik: logLik, lScaled: lScaled, x: x, y: y,
		banded: a.banded, diag: a.diag, radius: a.radius,
	}
	return &a.res, nil
}

// resize grows the DP buffers to (n+1)×(m+1) without clearing them;
// forward and backward initialize exactly the cells they depend on.
func (a *Aligner) resize(n, m int) {
	need := (n + 1) * (m + 1)
	if cap(a.fM) < need {
		a.fM = make([]float64, need)
		a.fX = make([]float64, need)
		a.fY = make([]float64, need)
		a.bM = make([]float64, need)
		a.bX = make([]float64, need)
		a.bY = make([]float64, need)
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

// fillEmissions computes p*(i,j) = Σ_k r_ik·p(k|y_j) for every in-band
// cell, shared by the forward and backward passes. Out-of-band pstar
// cells may hold stale values from earlier runs; every read of such a
// cell is multiplied by a zeroed DP guard, so stale (always finite)
// emissions never contribute.
func (a *Aligner) fillEmissions(x *pwm.Matrix, y dna.Seq, n, m int) {
	w := m + 1
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
				out[jj] = row[dna.A]*a.mean[dna.A] + row[dna.C]*a.mean[dna.C] + row[dna.G]*a.mean[dna.G] + row[dna.T]*a.mean[dna.T]
			}
		}
	}
}

// forward fills the scaled forward matrices and a.scale over the band.
func (a *Aligner) forward(n, m int) error {
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
func (a *Aligner) terminalSum(n, m int) float64 {
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
func (a *Aligner) backward(n, m int) {
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
func (r *Result) PostMatch(i, j int) float64 {
	if !r.inBand(i, j) {
		return 0
	}
	idx := i*(r.M+1) + j
	return r.a.fM[idx] * r.a.bM[idx] / r.lScaled
}

// PostGapX returns the posterior probability that read base i is
// aligned to a gap between window bases j and j+1 (an insertion in the
// read): P(x_i ◇ G_j | x, y).
func (r *Result) PostGapX(i, j int) float64 {
	if !r.inBand(i, j) {
		return 0
	}
	idx := i*(r.M+1) + j
	return r.a.fX[idx] * r.a.bX[idx] / r.lScaled
}

// PostGapY returns the posterior probability that window base j is
// aligned to a gap between read bases i and i+1 (a deletion in the
// read): P(y_j ◇ G_i | x, y).
func (r *Result) PostGapY(i, j int) float64 {
	if !r.inBand(i, j) {
		return 0
	}
	idx := i*(r.M+1) + j
	return r.a.fY[idx] * r.a.bY[idx] / r.lScaled
}

// Attribution selects how posterior match mass at a genome position is
// attributed to nucleotide channels.
type Attribution int

const (
	// ByCall attributes each read position's posterior mass entirely
	// to its called base — the paper's z_kA = Σ_{i: x_i=A} P(x_i◇y_j)
	// formulation.
	ByCall Attribution = iota
	// ByPWM splits each read position's posterior mass across bases in
	// proportion to the position's quality-derived PWM row, so a
	// low-confidence call spreads its evidence.
	ByPWM
)

// Contribution computes the z-vector of this read at window position j
// (1-based): the five channel probabilities (A, C, G, T, gap) that the
// read aligns each to the position, normalized to sum to 1 when the
// position receives any mass (paper §VI Step 2). The returned total is
// the unnormalized mass, used by callers to skip untouched positions.
func (r *Result) Contribution(j int, attr Attribution) (z [dna.NumChannels]float64, total float64) {
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
// sweep over the in-band posterior cells (the mapper's hot path). dst
// and totals must have length M.
func (r *Result) ContributionsInto(attr Attribution, dst [][dna.NumChannels]float64, totals []float64) error {
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
