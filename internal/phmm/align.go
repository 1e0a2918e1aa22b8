package phmm

import (
	"errors"

	"gnumap/internal/dna"
	"gnumap/internal/pwm"
)

// ErrNoAlignment is returned when the model assigns zero probability to
// every alignment of the read and window (possible with degenerate
// parameters, e.g. a one-hot PWM against a mismatching window in Global
// mode with a zero-probability Match entry, or when a band excludes
// every admissible alignment).
var ErrNoAlignment = errors.New("phmm: no alignment with non-zero probability")

// Aligner holds the per-goroutine state of the single-path aligner: the
// Viterbi DP buffers (viterbi.go). It keeps no emission plane — Viterbi
// takes a read row's five log emissions once per row — and runs no
// forward-backward of its own: every marginal alignment goes through
// BatchAligner.AlignBatch, and AlignBanded is a one-lane batch. One
// Aligner per goroutine; results are views into its buffers and are
// invalidated by the next call.
type Aligner struct {
	params Params
	mode   Mode
	// emit holds the emission rows p(·|c) by window code c: Match's
	// four and, at dna.N, their mean (an ambiguous genome base) — the
	// batch kernel's table.
	emit [dna.N + 1][dna.NumBases]float64

	// cells accumulates the DP cells computed (per pass geometry, not
	// per pass count) across the aligner's lifetime — the kernel-work
	// measure observability reports as phmm.cells.
	cells int64

	// batch runs AlignBanded's one-lane sweeps.
	batch *BatchAligner

	// Viterbi DP state and reusable output (see viterbi.go).
	vM, vX, vY       []float64
	ptrM, ptrX, ptrY []viterbiState
	path             Path
	ops, opsRev      []Op
}

// NewAligner returns an Aligner with validated parameters.
func NewAligner(p Params, mode Mode) (*Aligner, error) {
	b, err := NewBatchAligner(p, mode)
	if err != nil {
		return nil, err
	}
	return &Aligner{params: p, mode: mode, emit: b.emit, batch: b}, nil
}

// Params returns the aligner's parameter set.
func (a *Aligner) Params() Params { return a.params }

// Mode returns the aligner's boundary-condition mode.
func (a *Aligner) Mode() Mode { return a.mode }

// CellsComputed returns the cumulative DP cells this aligner has
// computed across all AlignBanded/Viterbi calls (band geometry per call,
// so a banded call counts only its in-band cells). Callers tracking
// per-read work should difference successive values.
func (a *Aligner) CellsComputed() int64 { return a.cells }

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

// AlignBanded runs the forward-backward alignment of read PWM x against
// genome window y as a one-lane AlignBatch, restricted to a diagonal
// band: only cells with |j - i - diag| <= band/2 are computed, where diag
// is the expected offset between window column j and read row i (for a
// window that starts pad bases before the read's seeded position, diag =
// pad). band <= 0 disables banding. It returns the lane's result (a view
// valid until the next AlignBanded call), or ErrNoAlignment when the lane
// is dead, and adds the band's cells to CellsComputed.
//
// No production code calls it: it survives only because the repo
// benchmark's phmm.scalar_ns_per_cell probe (bench/probes.go) does, and
// ROADMAP item 5(c) removes it together with that probe.
func (a *Aligner) AlignBanded(x *pwm.Matrix, y dna.Seq, diag, band int) (*BatchResult, error) {
	res, err := a.batch.AlignBatch([]*pwm.Matrix{x}, []dna.Seq{y}, diag, band)
	if err != nil {
		return nil, err
	}
	a.cells += int64(BandCells(x.Len(), len(y), diag, band))
	if res[0].Err != nil {
		return nil, res[0].Err
	}
	return &res[0], nil
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
