package phmm

import (
	"fmt"
	"math"

	"gnumap/internal/cpu"
	"gnumap/internal/dna"
	"gnumap/internal/pwm"
)

// BatchAligner is the wavefront-batched forward-backward kernel: it
// evaluates many same-shape (read, window) pairs — lanes — in one
// sweep. DP state is laid out struct-of-arrays and lane-striped (cell
// (i, j) of lane l lives at ((i·(m+1))+j)·lanes + l), so the inner loop
// of every anti-diagonal step is one contiguous, branch-free pass over
// all lanes of the batch: each step advances every lane's recurrence by
// one cell, interleaving the lanes' serial GY/rescale dependency chains
// into independent work the CPU can overlap.
//
// Per-lane arithmetic is kept expression-for-expression identical to
// the scalar kernel in align.go (same operand order, same
// parenthesization, same per-row rescaling and summation order), so a
// batched lane's scores, scale factors, and posteriors are bit-identical
// to a scalar AlignBanded call on the same pair — the PR 1 exactness
// harness gates this. One BatchAligner per goroutine; results are views
// into its buffers and are invalidated by the next AlignBatch call.
type BatchAligner struct {
	params Params
	mode   Mode
	// emit holds the match emission rows p(k | y) for y = A, C, G, T and,
	// last, the ambiguous genome base's mean row.
	emit [dna.NumBases + 1][dna.NumBases]float64

	// Lane-striped DP planes, indexed ((i*(m+1))+j)*lanes + l. Only the
	// cells each pass writes are (re-)initialized, with one guard cell
	// zeroed on each side of a row's band — exactly the scalar kernel's
	// reuse discipline, replicated per lane.
	fM, fX, fY []float64
	bM, bX, bY []float64
	pstar      []float64
	// scale[i*lanes+l] is lane l's forward scaling factor of row i.
	scale []float64

	// The batch's inputs striped for the vector rows (stripeInputs):
	// codes[(j-1)*8+l] is lane l's window code at column j as an index
	// into a row's emission table, pw[((i-1)*4+k)*8+l] lane l's PWM
	// probability of base k at read position i.
	codes []int32
	pw    []float64

	// Per-lane scratch (length = lanes of the current batch).
	rowSum, inv, lScaled []float64
	// dead marks lanes with no in-band alignment of non-zero
	// probability; their rows are zeroed (inv = 0) so the sweep stays
	// branch-free while the lane's state can never leak across lanes.
	dead []bool

	// Geometry of the current batch.
	lanes        int
	n, m         int
	banded       bool
	diag, radius int
	// vector is set when the batch runs the AVX2 rows — 8 lanes on an
	// AVX2 host — which then also extract its posteriors.
	vector bool

	// cells accumulates DP cells computed (band geometry × lanes, the
	// same accounting as Aligner.cells) across the aligner's lifetime.
	cells int64

	// Reusable per-call views of the batch inputs and outputs.
	xs      []*pwm.Matrix
	ys      []dna.Seq
	results []BatchResult

	// zs holds every lane's unnormalized z-vectors under zsAttr, striped
	// zs[((j-1)*NumChannels+k)*lanes + l]: filled by the first
	// ContributionsInto after an AlignBatch, which clears zsValid.
	zs      []float64
	zsAttr  Attribution
	zsValid bool
}

// NewBatchAligner returns a BatchAligner with validated parameters.
func NewBatchAligner(p Params, mode Mode) (*BatchAligner, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if mode != Global && mode != SemiGlobal {
		return nil, fmt.Errorf("phmm: unknown mode %d", int(mode))
	}
	b := &BatchAligner{params: p, mode: mode}
	copy(b.emit[:], p.Match[:])
	b.emit[dna.NumBases] = p.meanMatch()
	return b, nil
}

// BatchKernel names the row kernel of a full simdLanes-wide batch here:
// "avx2", or "generic" (the Go lane loops every other width takes too).
func BatchKernel() string {
	if cpu.HasAVX2 {
		return "avx2"
	}
	return "generic"
}

// Params returns the aligner's parameter set.
func (b *BatchAligner) Params() Params { return b.params }

// Mode returns the aligner's boundary-condition mode.
func (b *BatchAligner) Mode() Mode { return b.mode }

// CellsComputed returns the cumulative DP cells this aligner has
// computed across all AlignBatch calls: every lane of a batch counts
// its full band geometry, matching what the same alignments would have
// added to Aligner.CellsComputed one call at a time.
func (b *BatchAligner) CellsComputed() int64 { return b.cells }

// BatchResult is one lane's completed alignment: a view into the
// BatchAligner's striped buffers, valid until the next AlignBatch call.
type BatchResult struct {
	b    *BatchAligner
	lane int
	// N is the read length, M the window length (shared by the batch).
	N, M int
	// Err is ErrNoAlignment for lanes whose pair admits no in-band
	// alignment of non-zero probability; all other fields of such a
	// lane are meaningless. Call-level failures (shape mismatches)
	// surface as AlignBatch errors instead.
	Err error
	// LogLik is the natural-log total alignment likelihood of the lane.
	LogLik float64
	// lScaled is the terminal sum in scaled space; posteriors divide
	// by it.
	lScaled float64
	x       *pwm.Matrix
	y       dna.Seq
	// band geometry snapshot (shared by the batch).
	banded       bool
	diag, radius int
}

// AlignBatch runs the scaled forward and backward wavefront sweeps for
// every lane (xs[l], ys[l]) under one shared band geometry and returns
// per-lane posterior views. All lanes must share the read length,
// window length, diag, and band — the shape key the engine bins
// candidate windows by; a mismatch is an error. The returned slice is
// reused by the next AlignBatch call.
func (b *BatchAligner) AlignBatch(xs []*pwm.Matrix, ys []dna.Seq, diag, band int) ([]BatchResult, error) {
	L := len(xs)
	if L == 0 || len(ys) != L {
		return nil, fmt.Errorf("phmm: batch of %d reads vs %d windows", L, len(ys))
	}
	n, m := xs[0].Len(), len(ys[0])
	if n == 0 || m == 0 {
		return nil, fmt.Errorf("phmm: empty read (%d) or window (%d)", n, m)
	}
	for l := 1; l < L; l++ {
		if xs[l].Len() != n || len(ys[l]) != m {
			return nil, fmt.Errorf("phmm: batch lane %d shape (%d,%d), want (%d,%d)",
				l, xs[l].Len(), len(ys[l]), n, m)
		}
	}
	b.lanes = L
	b.zsValid = false
	b.n, b.m = n, m
	b.banded = band > 0
	b.diag = diag
	b.radius = band / 2
	b.cells += int64(L) * int64(BandCells(n, m, diag, band))
	b.resize(n, m, L)
	b.xs = append(b.xs[:0], xs...)
	b.ys = append(b.ys[:0], ys...)

	results := b.results[:0]
	for l := 0; l < L; l++ {
		results = append(results, BatchResult{
			b: b, lane: l, N: n, M: m, x: xs[l], y: ys[l],
			banded: b.banded, diag: diag, radius: b.radius,
		})
	}
	b.results = results

	b.vector = cpu.HasAVX2 && L == simdLanes
	if b.vector {
		b.stripeInputs(n, m) // the forward rows select p* themselves
	} else {
		b.fillEmissions(n, m)
	}
	b.forward(n, m)
	b.terminalSums(n, m)
	anyLive := false
	for l := 0; l < L; l++ {
		if b.dead[l] {
			results[l].Err = ErrNoAlignment
		} else {
			anyLive = true
		}
	}
	if !anyLive {
		return results, nil
	}
	b.backward(n, m)
	var lg logSum8
	if b.vector {
		// Every lane's sum at vector width; a lane that meets a value the
		// vector log does not take is summed again below with math.Log.
		lg.rows, lg.n = &b.scale[simdLanes], int64(n)
		for l := range lg.sum {
			lg.sum[l] = 1 // a dead lane's terminal sum may be anything
			if !b.dead[l] {
				lg.sum[l] = b.lScaled[l]
			}
		}
		logLikAVX2(&lg)
	}
	for l := 0; l < L; l++ {
		if b.dead[l] {
			continue
		}
		results[l].lScaled = b.lScaled[l]
		if b.vector && lg.bad>>l&1 == 0 {
			results[l].LogLik = lg.sum[l]
			continue
		}
		logLik := math.Log(b.lScaled[l])
		for i := 1; i <= n; i++ {
			logLik += math.Log(b.scale[i*L+l])
		}
		results[l].LogLik = logLik
	}
	return results, nil
}

// resize grows the striped buffers to (n+1)×(m+1)×L without clearing
// them; the passes initialize exactly the cells they depend on.
func (b *BatchAligner) resize(n, m, L int) {
	need := (n + 1) * (m + 1) * L
	if cap(b.fM) < need {
		// One allocation, plane p starting p·576 bytes past a 4 KiB
		// boundary: allocated apart, every plane starts on one, and then
		// a sweep's loads from one plane 4K-alias the stores it has just
		// made to another at the same offset and wait for them (16% of
		// AlignBatch at the engine's shape on a 2.1 GHz Xeon).
		stride := (need+511)/512*512 + 72
		buf := make([]float64, 7*stride)
		for p, pl := range [...]*[]float64{&b.fM, &b.fX, &b.fY, &b.bM, &b.bX, &b.bY, &b.pstar} {
			*pl = buf[p*stride : p*stride+need : (p+1)*stride]
		}
	}
	b.fM = b.fM[:need]
	b.fX = b.fX[:need]
	b.fY = b.fY[:need]
	b.bM = b.bM[:need]
	b.bX = b.bX[:need]
	b.bY = b.bY[:need]
	b.pstar = b.pstar[:need]
	if cap(b.scale) < (n+1)*L {
		b.scale = make([]float64, (n+1)*L)
	}
	b.scale = b.scale[:(n+1)*L]
	if cap(b.codes) < m*L {
		b.codes = make([]int32, m*L)
	}
	b.codes = b.codes[:m*L]
	if cap(b.pw) < n*dna.NumBases*L {
		b.pw = make([]float64, n*dna.NumBases*L)
	}
	b.pw = b.pw[:n*dna.NumBases*L]
	if cap(b.rowSum) < L {
		b.rowSum = make([]float64, L)
		b.inv = make([]float64, L)
		b.lScaled = make([]float64, L)
		b.dead = make([]bool, L)
	}
	b.rowSum = b.rowSum[:L]
	b.inv = b.inv[:L]
	b.lScaled = b.lScaled[:L]
	b.dead = b.dead[:L]
	if cap(b.results) < L {
		b.results = make([]BatchResult, 0, L)
	}
}

// fillEmissions computes each lane's p*(i,j) for every in-band cell —
// the scalar fillEmissions expression per lane, written lane-major so
// each lane's PWM row is fetched once per DP row.
func (b *BatchAligner) fillEmissions(n, m int) {
	w := m + 1
	L := b.lanes
	ps := b.pstar
	// Row-outer so each sweep stays inside one row's striped region
	// ((hi-lo+1)·L cells), which fits L1 even for wide bands; a
	// lane-outer walk of the whole plane would touch one cache line per
	// cell, L times over. Per (row, lane), the emission can only take
	// one value per genome base, so the dot products are hoisted into a
	// 5-entry table (A, C, G, T, ambiguous) — the same expressions the
	// scalar kernel evaluates per cell, computed once and looked up.
	for i := 1; i <= n; i++ {
		lo, hi := bandRowBounds(i, m, b.diag, b.radius, b.banded)
		if lo > hi {
			continue
		}
		for l := 0; l < L; l++ {
			x, y := b.xs[l], b.ys[l]
			row := x.Row(i - 1) // PWM is 0-based
			var e [dna.NumBases + 1]float64
			for v := range e {
				mr := &b.emit[v]
				e[v] = row[dna.A]*mr[dna.A] + row[dna.C]*mr[dna.C] + row[dna.G]*mr[dna.G] + row[dna.T]*mr[dna.T]
			}
			base := i*w*L + l
			ys := y[lo-1 : hi]
			for o, yj := range ys {
				idx := int(yj)
				if idx >= dna.NumBases {
					idx = dna.NumBases // any non-concrete code
				}
				ps[base+(lo+o)*L] = e[idx]
			}
		}
	}
}

// stripeInputs fills b.codes and b.pw for a full 8-lane batch: lane l's
// window code at column j becomes code*8 + l, every non-concrete code
// landing on the ambiguous entry, and its PWM rows are transposed so one
// load takes a base's probability for four lanes.
func (b *BatchAligner) stripeInputs(n, m int) {
	for l, y := range b.ys[:simdLanes] {
		for j, c := range y[:m] {
			b.codes[j*simdLanes+l] = int32(min(int(c), dna.NumBases)*simdLanes + l)
		}
	}
	for i := 0; i < n; i++ {
		p := (*[dna.NumBases * simdLanes]float64)(b.pw[i*dna.NumBases*simdLanes:])
		for l, x := range b.xs[:simdLanes] {
			p[l], p[simdLanes+l] = x.Prob(i, dna.A), x.Prob(i, dna.C)
			p[2*simdLanes+l], p[3*simdLanes+l] = x.Prob(i, dna.G), x.Prob(i, dna.T)
		}
	}
}

// zeroLanes zeroes one striped cell (all lanes) of the three planes; at
// the AVX2 width that is one 64-byte store per plane, not a memclr call.
func zeroLanes(pM, pX, pY []float64, at, L int) {
	if L == simdLanes {
		*(*[simdLanes]float64)(pM[at:]) = [simdLanes]float64{}
		*(*[simdLanes]float64)(pX[at:]) = [simdLanes]float64{}
		*(*[simdLanes]float64)(pY[at:]) = [simdLanes]float64{}
		return
	}
	clear(pM[at : at+L])
	clear(pX[at : at+L])
	clear(pY[at : at+L])
}

// forward fills the scaled forward planes and b.scale over the band,
// sweeping rows and advancing all lanes one cell per step. Lanes whose
// row sum hits zero are marked dead and their rows zeroed (inv = 0), so
// the remaining sweep needs no per-cell liveness branches.
func (b *BatchAligner) forward(n, m int) {
	p := b.params
	L := b.lanes
	w := m + 1
	fM, fX, fY, ps := b.fM, b.fX, b.fY, b.pstar
	for l := 0; l < L; l++ {
		b.scale[l] = 1
		b.dead[l] = false
	}
	// Initialize the row-0 border cells row 1 reads: columns
	// [lo(1)-1, hi(1)] (the recursion reads (0, j-1) and (0, j)).
	lo1, hi1 := bandRowBounds(1, m, b.diag, b.radius, b.banded)
	for j := lo1 - 1; j <= hi1; j++ {
		zeroLanes(fM, fX, fY, j*L, L)
	}
	if b.mode == Global {
		for l := 0; l < L; l++ {
			fM[l] = 1 // virtual begin at (0,0)
		}
	}
	entry := 0.0
	if b.mode == SemiGlobal {
		// Free entry: the first read base may match any window
		// position with unit prior weight.
		entry = 1
	}
	rs := b.rowSum
	var a fwdRow8
	if b.vector {
		a.emit = &b.emit[0][0]
		a.tmm, a.tgm, a.tmg, a.tgg, a.q = splat(p.TMM), splat(p.TGM), splat(p.TMG), splat(p.TGG), splat(p.Q)
	}
	for i := 1; i <= n; i++ {
		lo, hi := bandRowBounds(i, m, b.diag, b.radius, b.banded)
		if lo > hi {
			// The band slid off the DP rectangle: no admissible path
			// for any lane (geometry is shared).
			for l := 0; l < L; l++ {
				b.dead[l] = true
			}
			return
		}
		prev := (i - 1) * w
		cur := i * w
		rowEntry := 0.0
		if i == 1 {
			rowEntry = entry
		}
		if b.vector {
			// The row's emissions, its sweep, its tail and both guards:
			// the generic steps below, at vector width, in one call.
			at, pv := (cur+lo)*L, (prev+lo)*L
			a.outM, a.outX, a.outY, a.ps = &fM[at], &fX[at], &fY[at], &ps[at]
			a.prevM, a.prevX, a.prevY = &fM[pv], &fX[pv], &fY[pv]
			a.codes = &b.codes[(lo-1)*L]
			a.pw = &b.pw[(i-1)*dna.NumBases*L]
			a.scale = &b.scale[i*L]
			a.steps = int64(hi - lo + 1)
			a.guard = 0
			if hi < m {
				a.guard = 1
			}
			a.rowEntry = splat(rowEntry)
			forwardRowAVX2(&a)
			continue
		}
		// Left guard (see the scalar kernel for the reads it covers).
		zeroLanes(fM, fX, fY, (cur+lo-1)*L, L)
		for l := range rs {
			rs[l] = 0
		}
		for j := lo; j <= hi; j++ {
			c := (cur + j) * L
			// Slice every operand stream to the output's length so the
			// lane loop compiles without bounds checks.
			outM := fM[c : c+L : c+L]
			outX := fX[c : c+L : c+L]
			outY := fY[c : c+L : c+L]
			psc := ps[c : c+L]
			pd := (prev + j - 1) * L
			fMpd := fM[pd : pd+L]
			fXpd := fX[pd : pd+L]
			fYpd := fY[pd : pd+L]
			pu := (prev + j) * L
			fMpu := fM[pu : pu+L]
			fXpu := fX[pu : pu+L]
			lf := (cur + j - 1) * L
			fMlf := fM[lf : lf+L]
			fYlf := fY[lf : lf+L]
			sum := rs[:L]
			_ = psc[L-1]
			_ = fMpd[L-1]
			_ = fXpd[L-1]
			_ = fYpd[L-1]
			_ = fMpu[L-1]
			_ = fXpu[L-1]
			_ = fMlf[L-1]
			_ = fYlf[L-1]
			_ = sum[L-1]
			for l := range outM {
				// Match: all predecessors at (i-1, j-1).
				mm := p.TMM*fMpd[l] + p.TGM*(fXpd[l]+fYpd[l]) + rowEntry
				fm := psc[l] * mm
				// GX consumes a read base: predecessors at (i-1, j).
				fx := p.Q * (p.TMG*fMpu[l] + p.TGG*fXpu[l])
				// GY consumes a genome base: predecessors at (i, j-1),
				// within the current row (the previous wavefront step).
				fy := p.Q * (p.TMG*fMlf[l] + p.TGG*fYlf[l])
				outM[l] = fm
				outX[l] = fx
				outY[l] = fy
				sum[l] += fm + fx + fy
			}
		}
		b.finishForwardRow(i, lo, hi, cur)
	}
	if b.vector {
		for l, d := range a.dead {
			b.dead[l] = d != 0
		}
	}
}

// splat is x in each of the four lanes of a packed operand.
func splat(x float64) [4]float64 { return [4]float64{x, x, x, x} }

// finishForwardRow turns the row sums into scale factors (marking
// dead lanes), rescales the row's three planes, and zeroes the right
// band guard for row i+1 — the tail of one generic forward row.
func (b *BatchAligner) finishForwardRow(i, lo, hi, cur int) {
	L := b.lanes
	fM, fX, fY := b.fM, b.fX, b.fY
	rs, inv := b.rowSum, b.inv
	scaleRow := b.scale[i*L : i*L+L]
	for l := 0; l < L; l++ {
		if b.dead[l] || rs[l] <= 0 {
			// Zero the lane's row via inv = 0: every later row of
			// the lane then sums to zero too, keeping it dead
			// without any branch in the sweep itself.
			b.dead[l] = true
			scaleRow[l] = 1
			inv[l] = 0
			continue
		}
		scaleRow[l] = rs[l]
		inv[l] = 1 / rs[l]
	}
	for j := lo; j <= hi; j++ {
		c := (cur + j) * L
		outM := fM[c : c+L : c+L]
		outX := fX[c : c+L : c+L]
		outY := fY[c : c+L : c+L]
		iv := inv[:L]
		_ = iv[L-1]
		for l := range outM {
			outM[l] *= iv[l]
			outX[l] *= iv[l]
			outY[l] *= iv[l]
		}
	}
	// Right guard: row i+1's band may extend one column past hi.
	if hi < b.m {
		zeroLanes(fM, fX, fY, (cur+hi+1)*L, L)
	}
}

// terminalSums computes each live lane's scaled-space total likelihood
// (the scalar terminalSum, per lane) and marks zero-likelihood lanes
// dead.
func (b *BatchAligner) terminalSums(n, m int) {
	w := m + 1
	L := b.lanes
	last := n * w
	lo, hi := bandRowBounds(n, m, b.diag, b.radius, b.banded)
	if b.mode == Global {
		if hi != m {
			// The terminal cell (n, m) is outside the band: the whole
			// batch shares the geometry, so every lane is dead.
			for l := 0; l < L; l++ {
				b.dead[l] = true
			}
			return
		}
		c := (last + m) * L
		for l := 0; l < L; l++ {
			b.lScaled[l] = b.fM[c+l] + b.fX[c+l] + b.fY[c+l]
		}
	} else {
		// SemiGlobal: read fully consumed, trailing genome free.
		for l := 0; l < L; l++ {
			b.lScaled[l] = 0
		}
		for j := lo; j <= hi; j++ {
			c := (last + j) * L
			for l := 0; l < L; l++ {
				b.lScaled[l] += b.fM[c+l] + b.fX[c+l]
			}
		}
	}
	for l := 0; l < L; l++ {
		if b.lScaled[l] <= 0 {
			b.dead[l] = true
		}
	}
}

// backward fills the backward planes over the band, scaled with each
// lane's forward row scales — the scalar backward pass swept across all
// lanes per step. Dead lanes carry zeros (forward-dead) or unused
// finite values (terminal-dead); either way their state stays
// lane-local and is never exposed through a live result.
func (b *BatchAligner) backward(n, m int) {
	p := b.params
	L := b.lanes
	w := m + 1
	lastRow := n * w
	bM, bX, bY, ps := b.bM, b.bX, b.bY, b.pstar
	lon, hin := bandRowBounds(n, m, b.diag, b.radius, b.banded)
	// Terminal conditions on row n, exactly as in the scalar kernel.
	if b.mode == Global {
		// terminalSums already required hin == m here.
		for j := lon; j < m; j++ {
			zeroLanes(bM, bX, bY, (lastRow+j)*L, L)
		}
		c := (lastRow + m) * L
		for l := 0; l < L; l++ {
			bM[c+l] = 1
			bX[c+l] = 1
			bY[c+l] = 1
		}
		// Row n, right-to-left: trailing genome bases must still be
		// consumed through GY.
		for j := m - 1; j >= lon; j-- {
			at := (lastRow + j) * L
			nx := (lastRow + j + 1) * L
			outY := bY[at : at+L : at+L]
			outM := bM[at : at+L : at+L]
			bYnx := bY[nx : nx+L]
			_ = bYnx[L-1]
			for l := range outY {
				outY[l] = p.TGG * p.Q * bYnx[l]
				outM[l] = p.TMG * p.Q * bYnx[l]
			}
		}
	} else {
		for j := lon; j <= hin; j++ {
			c := (lastRow + j) * L
			for l := 0; l < L; l++ {
				bM[c+l] = 1
				bX[c+l] = 1
				// GY is not a terminal state in SemiGlobal.
				bY[c+l] = 0
			}
		}
	}
	// Row-n band guards for row n-1's reads.
	zeroLanes(bM, bX, bY, (lastRow+lon-1)*L, L)
	if hin < m {
		zeroLanes(bM, bX, bY, (lastRow+hin+1)*L, L)
	}
	iv := b.inv
	// tmgq and tggq match the scalar kernel's inline p.TMG*p.Q and
	// p.TGG*p.Q exactly: * is left-associative, so hoisting the first
	// product changes no rounding.
	tmgq := p.TMG * p.Q
	tggq := p.TGG * p.Q
	a := bwdRow8{tmm: p.TMM, tgm: p.TGM, tmgq: tmgq, tggq: tggq}
	for i := n - 1; i >= 1; i-- {
		lo, hi := bandRowBounds(i, m, b.diag, b.radius, b.banded)
		cur := i * w
		next := (i + 1) * w
		if b.vector {
			// The whole row — 1/scale, column m or the right guard, the
			// sweep, the left guard — in one call.
			at, nx := (cur+hi)*L, (next+hi)*L
			a.outM, a.outX, a.outY = &bM[at], &bX[at], &bY[at]
			a.nextM, a.nextX, a.ps = &bM[nx], &bX[nx], &ps[nx]
			a.scale = &b.scale[(i+1)*L]
			a.steps = int64(hi - lo + 1)
			a.atM = 0
			if hi == m {
				a.atM = 1
			}
			backwardRowAVX2(&a)
			continue
		}
		scaleNext := b.scale[(i+1)*L : (i+1)*L+L]
		for l := 0; l < L; l++ {
			iv[l] = 1 / scaleNext[l]
		}
		start := hi
		if hi == m {
			// Column m has no diagonal or GY continuation.
			cm := (cur + m) * L
			nm := (next + m) * L
			outM := bM[cm : cm+L : cm+L]
			outX := bX[cm : cm+L : cm+L]
			outY := bY[cm : cm+L : cm+L]
			bXnm := bX[nm : nm+L]
			ivs := iv[:L]
			_ = bXnm[L-1]
			_ = ivs[L-1]
			for l := range outM {
				bxm := bXnm[l] * ivs[l]
				outM[l] = p.TMG * p.Q * bxm
				outX[l] = p.TGG * p.Q * bxm
				outY[l] = 0
			}
			start = m - 1
		} else {
			// Right guard: the GY term reads (i, hi+1), and row i-1 may
			// read it too; out-of-band means zero.
			zeroLanes(bM, bX, bY, (cur+hi+1)*L, L)
		}
		for j := start; j >= lo; j-- {
			c := (cur + j) * L
			outM := bM[c : c+L : c+L]
			outX := bX[c : c+L : c+L]
			outY := bY[c : c+L : c+L]
			nd := (next + j + 1) * L
			psnd := ps[nd : nd+L]
			bMnd := bM[nd : nd+L]
			nu := (next + j) * L
			bXnu := bX[nu : nu+L]
			rt := (cur + j + 1) * L
			bYrt := bY[rt : rt+L]
			ivs := iv[:L]
			_ = psnd[L-1]
			_ = bMnd[L-1]
			_ = bXnu[L-1]
			_ = bYrt[L-1]
			_ = ivs[L-1]
			for l := range outM {
				diag := psnd[l] * bMnd[l] * ivs[l] // through M at (i+1, j+1)
				bx := bXnu[l] * ivs[l]             // through GX at (i+1, j)
				by := bYrt[l]                      // through GY at (i, j+1), same row
				outM[l] = p.TMM*diag + tmgq*bx + tmgq*by
				outX[l] = p.TGM*diag + tggq*bx
				outY[l] = p.TGM*diag + tggq*by
			}
		}
		// Left guard for row i-1's reads.
		zeroLanes(bM, bX, bY, (cur+lo-1)*L, L)
	}
}

// idx returns the striped flat index of the lane's cell (i, j).
func (r *BatchResult) idx(i, j int) int {
	return (i*(r.M+1)+j)*r.b.lanes + r.lane
}

// rowBounds is bandRowBounds under the result's geometry.
func (r *BatchResult) rowBounds(i int) (lo, hi int) {
	return bandRowBounds(i, r.M, r.diag, r.radius, r.banded)
}

// inBand reports whether cell (i, j) was computed by the run.
func (r *BatchResult) inBand(i, j int) bool {
	lo, hi := r.rowBounds(i)
	return j >= lo && j <= hi
}

// PostMatch returns the posterior probability that read base i is
// aligned to window base j (both 1-based) — see Result.PostMatch.
func (r *BatchResult) PostMatch(i, j int) float64 {
	if !r.inBand(i, j) {
		return 0
	}
	at := r.idx(i, j)
	return r.b.fM[at] * r.b.bM[at] / r.lScaled
}

// PostGapX returns the posterior probability that read base i is
// aligned to a gap (an insertion in the read) — see Result.PostGapX.
func (r *BatchResult) PostGapX(i, j int) float64 {
	if !r.inBand(i, j) {
		return 0
	}
	at := r.idx(i, j)
	return r.b.fX[at] * r.b.bX[at] / r.lScaled
}

// PostGapY returns the posterior probability that window base j is
// aligned to a gap (a deletion in the read) — see Result.PostGapY.
func (r *BatchResult) PostGapY(i, j int) float64 {
	if !r.inBand(i, j) {
		return 0
	}
	at := r.idx(i, j)
	return r.b.fY[at] * r.b.bY[at] / r.lScaled
}

// ContributionsInto fills dst[j-1] with the normalized z-vector for
// every window position j and totals[j-1] with its unnormalized mass —
// Result.ContributionsInto over the lane's striped posterior cells,
// with the same row-major accumulation order so the output is
// bit-identical to the scalar path's. A batch the AVX2 rows aligned
// extracts all lanes in one pass instead (stripeLaneInto), which must
// reproduce the lane-at-a-time loop below.
func (r *BatchResult) ContributionsInto(attr Attribution, dst [][dna.NumChannels]float64, totals []float64) error {
	if r.Err != nil {
		return r.Err
	}
	if len(dst) != r.M || len(totals) != r.M {
		return fmt.Errorf("phmm: ContributionsInto needs length %d, got %d/%d", r.M, len(dst), len(totals))
	}
	if r.b.vector {
		r.b.stripeLaneInto(attr, r.lane, dst, totals)
		return nil
	}
	for j := range dst {
		dst[j] = [dna.NumChannels]float64{}
	}
	w := r.M + 1
	L := r.b.lanes
	inv := 1 / r.lScaled
	fM, bM, fY, bY := r.b.fM, r.b.bM, r.b.fY, r.b.bY
	for i := 1; i <= r.N; i++ {
		lo, hi := r.rowBounds(i)
		base := i*w*L + r.lane
		var row [dna.NumBases]float64
		var call dna.Code
		if attr == ByPWM {
			row = r.x.Row(i - 1)
		} else {
			call = r.x.Call(i - 1)
		}
		for j := lo; j <= hi; j++ {
			at := base + j*L
			pm := fM[at] * bM[at] * inv
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
			if gy := fY[at] * bY[at]; gy > 0 {
				dst[j-1][dna.ChGap] += gy * inv
			}
		}
	}
	normalizeContribs(dst, totals)
	return nil
}

// stripeLaneInto is ContributionsInto for one lane of a full 8-lane
// batch: the first call after an AlignBatch (or a change of attribution)
// extracts every lane's z-vectors at once, and each call de-stripes and
// normalizes its own lane's column — so a batch nobody asks pays nothing.
func (b *BatchAligner) stripeLaneInto(attr Attribution, lane int, dst [][dna.NumChannels]float64, totals []float64) {
	if !b.zsValid || b.zsAttr != attr {
		b.extractStripe(attr)
	}
	// normalizeContribs fused into the copy (same sum order, same
	// 1/total), in scalars: a column built as an array value and copied
	// whole stalls on a failed store forward, tripling this loop's cost.
	for j := range dst {
		at := j*dna.NumChannels*simdLanes + lane
		col := b.zs[at : at+(dna.NumChannels-1)*simdLanes+1]
		zA, zC, zG, zT, zGap := col[0], col[simdLanes], col[2*simdLanes], col[3*simdLanes], col[4*simdLanes]
		total := 0 + zA + zC + zG + zT + zGap
		totals[j] = total
		invT := 0.0 // z*0 = +0: the zeroed column
		if total > 1e-12 {
			invT = 1 / total
		}
		d := &dst[j]
		d[dna.A], d[dna.C], d[dna.G], d[dna.T], d[dna.ChGap] = zA*invT, zC*invT, zG*invT, zT*invT, zGap*invT
	}
}

// extractStripe accumulates the unnormalized z-vectors of all 8 lanes
// into b.zs in one row-major sweep. Per-row, per-lane weights fold the
// per-lane loop's branches into z[k] += pm*wt[k], bit for bit the same
// sum (DESIGN.md §12 "Extraction"): pm*1 = pm; pm*0 = +0 and z + (+0) = z
// for the non-negative z held here, so the pm > 0 / gy > 0 guards drop
// out too; pm/4 = pm*0.25 exactly; and per (lane, j, k) the additions
// still arrive in increasing i. A dead lane gets inv = 0 and its column
// is never read.
func (b *BatchAligner) extractStripe(attr Attribution) {
	const L = simdLanes
	w := b.m + 1
	need := b.m * dna.NumChannels * L
	if cap(b.zs) < need {
		b.zs = make([]float64, need)
	}
	b.zs = b.zs[:need]
	clear(b.zs)
	for l := range b.inv {
		b.inv[l] = 0
		if !b.dead[l] {
			b.inv[l] = 1 / b.lScaled[l]
		}
	}
	var wt [dna.NumBases * L]float64
	a := zRow8{inv: &b.inv[0]}
	for i := 1; i <= b.n; i++ {
		lo, hi := bandRowBounds(i, b.m, b.diag, b.radius, b.banded)
		if lo > hi {
			continue
		}
		if attr == ByPWM {
			a.wt = &b.pw[(i-1)*dna.NumBases*L] // the row's PWM, already striped
		} else {
			b.callWeights(i, &wt)
			a.wt = &wt[0]
		}
		at := (i*w + lo) * L
		a.fM, a.bM, a.fY, a.bY = &b.fM[at], &b.bM[at], &b.fY[at], &b.bY[at]
		a.z = &b.zs[(lo-1)*dna.NumChannels*L]
		a.steps = int64(hi - lo + 1)
		extractRowAVX2(&a)
	}
	b.zsAttr, b.zsValid = attr, true
}

// callWeights sets wt[k*8+l] to lane l's ByCall attribution weight of
// base k at read position i (1-based): one-hot at a concrete call and a
// quarter each at an N. (Under ByPWM the weights are the striped PWM.)
func (b *BatchAligner) callWeights(i int, wt *[dna.NumBases * simdLanes]float64) {
	clear(wt[:])
	for l, x := range b.xs[:simdLanes] {
		if call := x.Call(i - 1); call.IsConcrete() {
			wt[int(call)*simdLanes+l] = 1
			continue
		}
		for k := 0; k < dna.NumBases; k++ {
			wt[k*simdLanes+l] = 0.25
		}
	}
}
