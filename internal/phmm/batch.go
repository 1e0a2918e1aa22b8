package phmm

import (
	"fmt"
	"math"

	"gnumap/internal/cpu"
	"gnumap/internal/dna"
	"gnumap/internal/pwm"
)

// BatchAligner is the wavefront-batched forward-backward kernel: it
// evaluates up to simdLanes same-shape (read, window) pairs — lanes — in
// one sweep that is always simdLanes wide, a narrower batch padded with
// copies of its last lane. DP state is laid out struct-of-arrays and
// lane-striped (cell (i, j) of lane l lives at ((i·(m+1))+j)·8 + l), so
// every step of a row advances all 8 lanes' recurrences by one cell,
// interleaving the lanes' serial GY/rescale dependency chains into
// independent work the CPU can overlap. Each pass calls one row function
// per row (the row contract in rows.go: AVX2 assembly or its Go
// reference).
//
// Per-lane arithmetic is kept expression-for-expression identical to
// the scalar forward-backward (same operand order, same
// parenthesization, same per-row rescaling and summation order), so a
// batched lane's scores, scale factors, and posteriors are bit-identical
// to a scalar alignment of the same pair. The scalar kernel lives in the
// tests (refAligner, ref_test.go) as the oracle the exactness tests in
// batch_test.go hold every lane to; AlignBatch is the package's only
// forward-backward. One BatchAligner per goroutine; results are views
// into its buffers and are invalidated by the next AlignBatch call.
type BatchAligner struct {
	params Params
	mode   Mode
	// emit holds the match emission rows p(k | y) for y = A, C, G, T and,
	// last, the ambiguous genome base's mean row.
	emit [dna.NumBases + 1][dna.NumBases]float64

	// Lane-striped DP planes, indexed ((i*(m+1))+j)*8 + l. Only the
	// cells each pass writes are (re-)initialized, with one guard cell
	// zeroed on each side of a row's band — exactly the scalar kernel's
	// reuse discipline, replicated per lane. pstar holds the forward
	// rows' emissions p*(i,j) for the backward rows.
	fM, fX, fY []float64
	bM, bX, bY []float64
	pstar      []float64
	// scale[i*8+l] is lane l's forward scaling factor of row i.
	scale []float64

	// The batch's inputs striped for the rows (stripeInputs):
	// codes[(j-1)*8+l] is lane l's window code at column j as an index
	// into a row's emission table, pw[((i-1)*4+k)*8+l] lane l's PWM
	// probability of base k at read position i.
	codes []int32
	pw    []float64

	// Per-lane terminal sums and their inverses (0 for a dead lane).
	lScaled, inv [simdLanes]float64
	// dead marks lanes with no in-band alignment of non-zero
	// probability; their rows are zeroed (inv = 0) so the sweep stays
	// branch-free while the lane's state can never leak across lanes.
	dead [simdLanes]bool

	// Geometry of the current batch.
	n, m         int
	banded       bool
	diag, radius int

	// cells accumulates DP cells computed (band geometry × real lanes,
	// the same accounting as Aligner.cells) across the aligner's
	// lifetime.
	cells int64

	// Reusable per-call views of the batch inputs (padded to simdLanes)
	// and outputs (one per real lane).
	xs      []*pwm.Matrix
	ys      []dna.Seq
	results []BatchResult

	// zs holds every lane's unnormalized z-vectors under zsAttr, striped
	// zs[((j-1)*NumChannels+k)*8 + l]: filled by the first
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

// MaxBatch is the most pairs one AlignBatch call takes: the width every
// sweep runs at.
const MaxBatch = simdLanes

// BatchKernel names the row implementation AlignBatch runs here:
// "avx512" or "avx2" (the assembly) or "generic" (its Go reference).
func BatchKernel() string {
	switch {
	case cpu.HasAVX512:
		return "avx512"
	case cpu.HasAVX2:
		return "avx2"
	}
	return "generic"
}

// CellsComputed returns the cumulative DP cells this aligner has
// computed across all AlignBatch calls: every pair of a batch counts
// its full band geometry, matching what the same alignments would have
// added to Aligner.CellsComputed one call at a time. Padding lanes are
// not billed.
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
	// band geometry snapshot (shared by the batch).
	banded       bool
	diag, radius int
}

// AlignBatch runs the scaled forward and backward wavefront sweeps for
// every lane (xs[l], ys[l]) under one shared band geometry and returns
// per-lane posterior views. A batch holds 1 to MaxBatch pairs, all
// sharing the read length, window length, diag, and band — the shape key
// the engine bins candidate windows by; anything else is an error. The
// returned slice is reused by the next AlignBatch call.
func (b *BatchAligner) AlignBatch(xs []*pwm.Matrix, ys []dna.Seq, diag, band int) ([]BatchResult, error) {
	L := len(xs)
	if L == 0 || L > MaxBatch || len(ys) != L {
		return nil, fmt.Errorf("phmm: batch of %d reads vs %d windows, want 1 to %d pairs", L, len(ys), MaxBatch)
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
	b.zsValid = false
	b.n, b.m = n, m
	b.banded = band > 0
	b.diag = diag
	b.radius = band / 2
	b.cells += int64(L) * int64(BandCells(n, m, diag, band))
	b.resize(n, m)
	// Pad the sweep to simdLanes with copies of the last pair: a copy
	// computes exactly what its original does, and is never returned.
	b.xs = append(b.xs[:0], xs...)
	b.ys = append(b.ys[:0], ys...)
	for len(b.xs) < simdLanes {
		b.xs, b.ys = append(b.xs, xs[L-1]), append(b.ys, ys[L-1])
	}

	results := b.results[:0]
	for l := 0; l < L; l++ {
		results = append(results, BatchResult{
			b: b, lane: l, N: n, M: m,
			banded: b.banded, diag: diag, radius: b.radius,
		})
	}
	b.results = results

	b.stripeInputs(n, m)
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
	lg := logSum8{rows: &b.scale[simdLanes], n: int64(n)}
	for l := range lg.sum {
		lg.sum[l] = 1 // a dead lane's terminal sum may be anything
		if !b.dead[l] {
			lg.sum[l] = b.lScaled[l]
		}
	}
	logLik(&lg)
	for l := 0; l < L; l++ {
		if b.dead[l] {
			continue
		}
		results[l].lScaled = b.lScaled[l]
		results[l].LogLik = lg.sum[l]
		if lg.bad>>l&1 != 0 {
			// A value the vector log does not take: the lane's sum again
			// with math.Log.
			s := math.Log(b.lScaled[l])
			for i := 1; i <= n; i++ {
				s += math.Log(b.scale[i*simdLanes+l])
			}
			results[l].LogLik = s
		}
	}
	return results, nil
}

// resize grows the striped buffers to (n+1)×(m+1)×8 without clearing
// them; the passes initialize exactly the cells they depend on.
func (b *BatchAligner) resize(n, m int) {
	const L = simdLanes
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
	if b.results == nil {
		b.results = make([]BatchResult, 0, MaxBatch)
	}
}

// stripeInputs fills b.codes and b.pw: lane l's window code at column j
// becomes code*8 + l, every non-concrete code landing on the ambiguous
// entry, and its PWM rows are transposed so one load takes a base's
// probability for four lanes.
func (b *BatchAligner) stripeInputs(n, m int) {
	for l, y := range b.ys {
		for j, c := range y[:m] {
			b.codes[j*simdLanes+l] = int32(min(int(c), dna.NumBases)*simdLanes + l)
		}
	}
	for i := 0; i < n; i++ {
		p := (*[dna.NumBases * simdLanes]float64)(b.pw[i*dna.NumBases*simdLanes:])
		for l, x := range b.xs {
			p[l], p[simdLanes+l] = x.Prob(i, dna.A), x.Prob(i, dna.C)
			p[2*simdLanes+l], p[3*simdLanes+l] = x.Prob(i, dna.G), x.Prob(i, dna.T)
		}
	}
}

// zeroLanes zeroes one striped cell (all lanes) of the three planes: one
// 64-byte store per plane.
func zeroLanes(pM, pX, pY []float64, at int) {
	*(*[simdLanes]float64)(pM[at:]) = [simdLanes]float64{}
	*(*[simdLanes]float64)(pX[at:]) = [simdLanes]float64{}
	*(*[simdLanes]float64)(pY[at:]) = [simdLanes]float64{}
}

// splat is x in each of the four lanes of a packed operand.
func splat(x float64) [4]float64 { return [4]float64{x, x, x, x} }

// forward fills the scaled forward planes and b.scale over the band, one
// forwardRow per row. Lanes whose row sum hits zero are marked dead and
// their rows zeroed (inv = 0), so the rows need no per-cell liveness
// branches.
func (b *BatchAligner) forward(n, m int) {
	const L = simdLanes
	p := b.params
	w := m + 1
	fM, fX, fY := b.fM, b.fX, b.fY
	for l := 0; l < L; l++ {
		b.scale[l] = 1
	}
	// Initialize the row-0 border cells row 1 reads: columns
	// [lo(1)-1, hi(1)] (the recursion reads (0, j-1) and (0, j)).
	lo1, hi1 := bandRowBounds(1, m, b.diag, b.radius, b.banded)
	for j := lo1 - 1; j <= hi1; j++ {
		zeroLanes(fM, fX, fY, j*L)
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
	a := fwdRow8{emit: &b.emit[0][0]}
	a.tmm, a.tgm, a.tmg, a.tgg, a.q = splat(p.TMM), splat(p.TGM), splat(p.TMG), splat(p.TGG), splat(p.Q)
	for i := 1; i <= n; i++ {
		lo, hi := bandRowBounds(i, m, b.diag, b.radius, b.banded)
		if lo > hi {
			// The band slid off the DP rectangle: no admissible path
			// for any lane (geometry is shared).
			for l := range b.dead {
				b.dead[l] = true
			}
			return
		}
		at, pv := (i*w+lo)*L, ((i-1)*w+lo)*L
		a.outM, a.outX, a.outY, a.ps = &fM[at], &fX[at], &fY[at], &b.pstar[at]
		a.prevM, a.prevX, a.prevY = &fM[pv], &fX[pv], &fY[pv]
		a.codes = &b.codes[(lo-1)*L]
		a.pw = &b.pw[(i-1)*dna.NumBases*L]
		a.scale = &b.scale[i*L]
		a.steps = int64(hi - lo + 1)
		a.guard = 0
		if hi < m {
			a.guard = 1
		}
		a.rowEntry = splat(0)
		if i == 1 {
			a.rowEntry = splat(entry)
		}
		forwardRow(&a)
	}
	for l, d := range a.dead {
		b.dead[l] = d != 0
	}
}

// terminalSums computes each live lane's scaled-space total likelihood
// (the scalar terminalSum, per lane) and marks zero-likelihood lanes
// dead.
func (b *BatchAligner) terminalSums(n, m int) {
	const L = simdLanes
	last := n * (m + 1)
	lo, hi := bandRowBounds(n, m, b.diag, b.radius, b.banded)
	if b.mode == Global {
		if hi != m {
			// The terminal cell (n, m) is outside the band: the whole
			// batch shares the geometry, so every lane is dead.
			for l := range b.dead {
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
		b.lScaled = [L]float64{}
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
// lane's forward row scales: row n's terminal conditions, then one
// backwardRow per row. Dead lanes carry zeros (forward-dead) or unused
// finite values (terminal-dead); either way their state stays
// lane-local and is never exposed through a live result.
func (b *BatchAligner) backward(n, m int) {
	const L = simdLanes
	p := b.params
	w := m + 1
	last := n * w
	bM, bX, bY := b.bM, b.bX, b.bY
	lon, hin := bandRowBounds(n, m, b.diag, b.radius, b.banded)
	// Terminal conditions on row n, exactly as in the scalar kernel.
	if b.mode == Global {
		// terminalSums already required hin == m here.
		for j := lon; j < m; j++ {
			zeroLanes(bM, bX, bY, (last+j)*L)
		}
		c := (last + m) * L
		for l := 0; l < L; l++ {
			bM[c+l], bX[c+l], bY[c+l] = 1, 1, 1
		}
		// Row n, right-to-left: trailing genome bases must still be
		// consumed through GY.
		for j := m - 1; j >= lon; j-- {
			at, nx := (last+j)*L, (last+j+1)*L
			for l := 0; l < L; l++ {
				bY[at+l] = p.TGG * p.Q * bY[nx+l]
				bM[at+l] = p.TMG * p.Q * bY[nx+l]
			}
		}
	} else {
		for j := lon; j <= hin; j++ {
			c := (last + j) * L
			for l := 0; l < L; l++ {
				// GY is not a terminal state in SemiGlobal.
				bM[c+l], bX[c+l], bY[c+l] = 1, 1, 0
			}
		}
	}
	// Row-n band guards for row n-1's reads.
	zeroLanes(bM, bX, bY, (last+lon-1)*L)
	if hin < m {
		zeroLanes(bM, bX, bY, (last+hin+1)*L)
	}
	// tmgq and tggq match the scalar kernel's inline p.TMG*p.Q and
	// p.TGG*p.Q exactly: * is left-associative, so hoisting the first
	// product changes no rounding.
	a := bwdRow8{tmm: p.TMM, tgm: p.TGM, tmgq: p.TMG * p.Q, tggq: p.TGG * p.Q}
	for i := n - 1; i >= 1; i-- {
		lo, hi := bandRowBounds(i, m, b.diag, b.radius, b.banded)
		at, nx := (i*w+hi)*L, ((i+1)*w+hi)*L
		a.outM, a.outX, a.outY = &bM[at], &bX[at], &bY[at]
		a.nextM, a.nextX, a.ps = &bM[nx], &bX[nx], &b.pstar[nx]
		a.scale = &b.scale[(i+1)*L]
		a.steps = int64(hi - lo + 1)
		a.atM = 0
		if hi == m {
			a.atM = 1
		}
		backwardRow(&a)
	}
}

// idx returns the striped flat index of the lane's cell (i, j).
func (r *BatchResult) idx(i, j int) int {
	return (i*(r.M+1)+j)*simdLanes + r.lane
}

// rowBounds is bandRowBounds under the result's geometry.
func (r *BatchResult) rowBounds(i int) (lo, hi int) {
	return bandRowBounds(i, r.M, r.diag, r.radius, r.banded)
}

// ContributionsInto fills dst[j-1] with the normalized z-vector for
// every window position j and totals[j-1] with its unnormalized mass —
// bit for bit the scalar kernel's on the same pair. The first call
// after an AlignBatch (or a change of attribution) extracts every lane's
// z-vectors at once; each call then de-stripes and normalizes its own
// lane's column, so a batch nobody asks pays nothing.
func (r *BatchResult) ContributionsInto(attr Attribution, dst [][dna.NumChannels]float64, totals []float64) error {
	if r.Err != nil {
		return r.Err
	}
	if len(dst) != r.M || len(totals) != r.M {
		return fmt.Errorf("phmm: ContributionsInto needs length %d, got %d/%d", r.M, len(dst), len(totals))
	}
	b := r.b
	if !b.zsValid || b.zsAttr != attr {
		b.extractStripe(attr)
	}
	// The scalar kernel's per-column normalization fused into the copy
	// (same sum order, same 1/total), in scalars: a column built as an array value and copied
	// whole stalls on a failed store forward, tripling this loop's cost.
	for j := range dst {
		at := j*dna.NumChannels*simdLanes + r.lane
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
	return nil
}

// extractStripe accumulates the unnormalized z-vectors of all 8 lanes
// into b.zs in one row-major sweep, one extractRow per row. Per-row,
// per-lane weights fold the scalar loop's branches into z[k] += pm*wt[k],
// bit for bit the same sum (DESIGN.md §12 "Extraction"): pm*1 = pm;
// pm*0 = +0 and z + (+0) = z for the non-negative z held here, so the
// pm > 0 / gy > 0 guards drop out too; pm/4 = pm*0.25 exactly; and per
// (lane, j, k) the additions still arrive in increasing i. A dead lane
// gets inv = 0 and its column is never read.
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
		extractRow(&a)
	}
	b.zsAttr, b.zsValid = attr, true
}

// callWeights sets wt[k*8+l] to lane l's ByCall attribution weight of
// base k at read position i (1-based): one-hot at a concrete call and a
// quarter each at an N. (Under ByPWM the weights are the striped PWM.)
func (b *BatchAligner) callWeights(i int, wt *[dna.NumBases * simdLanes]float64) {
	clear(wt[:])
	for l, x := range b.xs {
		if call := x.Call(i - 1); call.IsConcrete() {
			wt[int(call)*simdLanes+l] = 1
			continue
		}
		for k := 0; k < dna.NumBases; k++ {
			wt[k*simdLanes+l] = 0.25
		}
	}
}
