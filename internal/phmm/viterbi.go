package phmm

import (
	"fmt"
	"math"

	"gnumap/internal/dna"
	"gnumap/internal/pwm"
)

// Op is one step of a Viterbi alignment path.
type Op uint8

const (
	// OpMatch pairs one read base with one genome base.
	OpMatch Op = iota
	// OpInsert consumes a read base against a genome gap (GX state).
	OpInsert
	// OpDelete consumes a genome base against a read gap (GY state).
	OpDelete
)

// String returns the CIGAR-style letter of the op (M, I, D).
func (o Op) String() string {
	switch o {
	case OpMatch:
		return "M"
	case OpInsert:
		return "I"
	case OpDelete:
		return "D"
	default:
		return "?"
	}
}

// Path is a single highest-probability alignment. Paths returned by
// Viterbi are views into the Aligner's buffers: valid only until the
// next Viterbi call on the same Aligner.
type Path struct {
	// LogProb is the natural-log probability of the path.
	LogProb float64
	// Start is the 1-based window column of the first consumed genome
	// base (equals 1 in Global mode).
	Start int
	// End is the 1-based window column of the last consumed genome base.
	End int
	// Ops is the operation sequence from Start.
	Ops []Op
}

// CIGAR renders the path as a run-length encoded CIGAR string.
func (p *Path) CIGAR() string {
	if len(p.Ops) == 0 {
		return ""
	}
	out := ""
	runOp := p.Ops[0]
	runLen := 1
	for _, op := range p.Ops[1:] {
		if op == runOp {
			runLen++
			continue
		}
		out += fmt.Sprintf("%d%s", runLen, runOp)
		runOp, runLen = op, 1
	}
	return out + fmt.Sprintf("%d%s", runLen, runOp)
}

// viterbiState identifies the DP state for traceback.
type viterbiState uint8

const (
	stNone viterbiState = iota
	stM
	stX
	stY
	stBegin
)

// Viterbi computes the single most probable alignment of x against y
// under the aligner's mode, in log space (no scaling needed) over the
// full DP rectangle. It shares the Aligner's buffer discipline: one
// concurrent call per Aligner, and the returned Path is invalidated by
// the next Viterbi call.
//
// Viterbi is used by the single-best-path ablation and by callers that
// need a concrete CIGAR; the mapper itself uses the forward-backward
// marginal (AlignBatch), which is the paper's core methodological point.
func (a *Aligner) Viterbi(x *pwm.Matrix, y dna.Seq) (*Path, error) {
	return a.ViterbiBanded(x, y, 0, 0)
}

// ViterbiBanded is Viterbi restricted to a diagonal band, with the same
// band semantics as AlignBatch: only cells with |j - i - diag| <=
// band/2 are computed, and band <= 0 reproduces Viterbi exactly.
func (a *Aligner) ViterbiBanded(x *pwm.Matrix, y dna.Seq, diag, band int) (*Path, error) {
	n, m := x.Len(), len(y)
	if n == 0 || m == 0 {
		return nil, fmt.Errorf("phmm: empty read (%d) or window (%d)", n, m)
	}
	banded, radius := band > 0, band/2
	a.cells += int64(BandCells(n, m, diag, band))
	p := a.params
	w := m + 1
	size := (n + 1) * w
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
	lo1, hi1 := bandRowBounds(1, m, diag, radius, banded)
	for j := lo1 - 1; j <= hi1; j++ {
		vM[j], vX[j], vY[j] = negInf, negInf, negInf
	}
	if a.mode == Global {
		vM[0] = 0 // virtual begin
	}
	// logEm[c] is log p*(i, j) for a window base y_j = c: a read row's
	// emissions take only these five values (dna.N indexes the mean row).
	var logEm [dna.N + 1]float64
	for i := 1; i <= n; i++ {
		lo, hi := bandRowBounds(i, m, diag, radius, banded)
		if lo > hi {
			return nil, ErrNoAlignment
		}
		a.logEmissions(x.Row(i-1), &logEm)
		// SemiGlobal reads enter for free anywhere on row 1.
		freeEntry := a.mode == SemiGlobal && i == 1
		prev, cur := (i-1)*w, i*w
		// Left guard (same role as forward's).
		vM[cur+lo-1], vX[cur+lo-1], vY[cur+lo-1] = negInf, negInf, negInf
		for j := lo; j <= hi; j++ {
			lps := logEm[min(y[j-1], dna.N)]
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
			if freeEntry && best < 0 {
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
	lon, hin := bandRowBounds(n, m, diag, radius, banded)
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

// logEmissions sets e[c] to log Σ_k r_k·p(k|c), the log emission of
// PWM row r against window code c (dna.N: an ambiguous base), with the
// expression the batch kernel's emission table evaluates.
func (a *Aligner) logEmissions(row [dna.NumBases]float64, e *[dna.N + 1]float64) {
	for c, er := range &a.emit {
		e[c] = math.Log(row[dna.A]*er[dna.A] + row[dna.C]*er[dna.C] + row[dna.G]*er[dna.G] + row[dna.T]*er[dna.T])
	}
}

// resizeViterbi grows the Viterbi DP buffers without clearing them; the
// banded sweep writes every cell it later reads.
func (a *Aligner) resizeViterbi(size int) {
	if cap(a.vM) < size {
		a.vM = make([]float64, size)
		a.vX = make([]float64, size)
		a.vY = make([]float64, size)
		a.ptrM = make([]viterbiState, size)
		a.ptrX = make([]viterbiState, size)
		a.ptrY = make([]viterbiState, size)
	}
	a.vM = a.vM[:size]
	a.vX = a.vX[:size]
	a.vY = a.vY[:size]
	a.ptrM = a.ptrM[:size]
	a.ptrX = a.ptrX[:size]
	a.ptrY = a.ptrY[:size]
}
