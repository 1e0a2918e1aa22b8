package phmm

import (
	"math"
	"unsafe"

	"gnumap/internal/cpu"
	"gnumap/internal/dna"
)

// The row contract of the batched sweeps. Every AlignBatch sweep is
// simdLanes lanes wide, and each of its passes — a forward row, a
// backward row, the log-likelihood sums, a row of posterior extraction —
// is one call with one of the four structs below. Each call has three
// implementations: the AVX-512 assembly in batch512_amd64.s, one ZMM
// register per cell, taken when cpu.HasAVX512; the AVX2 assembly in
// batch_amd64.s, two YMM halves per cell, taken when cpu.HasAVX2; and
// the Go function beside it here, their step-for-step reference and the
// only kernel off amd64 (logLik has no AVX-512 row). All evaluate the
// scalar kernel's expression trees (the tests' oracle, ref_test.go)
// operation for operation, and Go never contracts a*b+c into an FMA, so
// each lane is bit-identical to a scalar alignment whichever runs. The
// pointers address lane-striped planes (8 lanes per cell); the byte
// offsets are the ones the assembly uses, asserted in
// batch_avx2_amd64.go. The Go rows are go:norace, as invisible to the
// race detector as the assembly: they touch only the calling aligner's
// own buffers, and instrumenting every lane-cell makes race-enabled runs
// of the Go rows about seven times slower.

// simdLanes is the width of every AlignBatch sweep.
const simdLanes = 8

// fwdRow8 carries one forward row: its emission table, the sweep over
// [lo, hi], the row's tail (scale, dead lanes, rescale) and both guards.
type fwdRow8 struct {
	outM, outX, outY    *float64 // +0, +8, +16: &plane[(cur+lo)*8]
	ps                  *float64 // +24: &pstar[(cur+lo)*8], written for the backward pass
	prevM, prevX, prevY *float64 // +32, +40, +48: &plane[(prev+lo)*8]
	codes               *int32   // +56: &codes[(lo-1)*8]
	pw                  *float64 // +64: &pw[(i-1)*32]: the row's 8 PWM rows
	emit                *float64 // +72: &BatchAligner.emit[0][0]
	scale               *float64 // +80: &scale[i*8]
	steps               int64    // +88: hi - lo + 1
	guard               int64    // +96: non-zero when hi < m (zero column hi+1)
	// dead is all ones for a dead lane; the row ORs in rs <= 0.
	dead [simdLanes]uint64 // +104
	// tab is the row's emission table, tab[v*8+l] for v = A, C, G, T,
	// ambiguous: scratch the row fills and gathers from.
	tab                [5 * simdLanes]float64 // +168
	tmm, tgm, tmg, tgg [4]float64             // +488, +520, +552, +584
	q, rowEntry        [4]float64             // +616, +648
}

// bwdRow8 carries one backward row (descending j, column m and both
// guards included).
type bwdRow8 struct {
	outM, outX, outY     *float64 // +0, +8, +16: &plane[(cur+hi)*8]
	nextM, nextX         *float64 // +24, +32: &bM/&bX[(next+hi)*8]
	ps                   *float64 // +40: &pstar[(next+hi)*8]
	scale                *float64 // +48: &scale[(i+1)*8]
	steps                int64    // +56: hi - lo + 1
	atM                  int64    // +64: non-zero when hi == m
	tmm, tgm, tmgq, tggq float64  // +72, +80, +88, +96
}

// logSum8 carries a batch's log-likelihood sums.
type logSum8 struct {
	rows *float64 // +0: &scale[8]: rows 1..n, 8 lanes each
	n    int64    // +8
	bad  int64    // +16: out: bit l set when lane l's sum must be redone with math.Log
	// sum holds each lane's terminal sum on entry and its
	// log-likelihood on return.
	sum [simdLanes]float64 // +24
}

// zRow8 carries one row of posterior extraction.
type zRow8 struct {
	fM, bM, fY, bY *float64 // +0, +8, +16, +24: &plane[(cur+lo)*8]
	z              *float64 // +32: &zs[(lo-1)*5*8]
	wt             *float64 // +40: the row's 4x8 attribution weights, wt[k*8+l]
	inv            *float64 // +48: 1/lScaled per lane (0 for a dead lane)
	steps          int64    // +56: hi - lo + 1
}

func forwardRow(a *fwdRow8) {
	switch {
	case cpu.HasAVX512:
		forwardRowAVX512(a)
	case cpu.HasAVX2:
		forwardRowAVX2(a)
	default:
		forwardRowGo(a)
	}
}

func backwardRow(a *bwdRow8) {
	switch {
	case cpu.HasAVX512:
		backwardRowAVX512(a)
	case cpu.HasAVX2:
		backwardRowAVX2(a)
	default:
		backwardRowGo(a)
	}
}

// logLik has no AVX-512 row: it runs once per sweep, and the AVX2 one
// serves both vector kernels.
func logLik(a *logSum8) {
	if cpu.HasAVX2 {
		logLikAVX2(a)
	} else {
		logLikGo(a)
	}
}

func extractRow(a *zRow8) {
	switch {
	case cpu.HasAVX512:
		extractRowAVX512(a)
	case cpu.HasAVX2:
		extractRowAVX2(a)
	default:
		extractRowGo(a)
	}
}

// cells is the striped cells [from, to) of a plane, one [8]float64 of
// lanes each, counted from the cell p points at.
func cells(p *float64, from, to int) [][simdLanes]float64 {
	return unsafe.Slice((*[simdLanes]float64)(unsafe.Add(unsafe.Pointer(p), from*simdLanes*8)), to-from)
}

// forwardRowGo is forwardRowAVX2. Its views start at the left guard
// lo-1, so column j is view cell j-lo+1:
//
//	p* = tab[codes[j-1][l]]                    (stored for the backward pass)
//	fy = q*(tmg*fM[i][j-1] + tgg*fY[i][j-1])
//	fm = p* * (tmm*fM[i-1][j-1] + tgm*(fX[i-1][j-1]+fY[i-1][j-1]) + rowEntry)
//	fx = q*(tmg*fM[i-1][j] + tgg*fX[i-1][j])
//	rs += (fm + fx) + fy
//
// with fM[i][j-1] and fY[i][j-1] carried from the previous step (the
// left guard's zeros at j = lo); then dead |= rs <= 0, scale = dead ? 1 :
// rs, the row times inv = dead ? 0 : 1/rs, and the right guard.
//
//go:norace
func forwardRowGo(a *fwdRow8) {
	const L = simdLanes
	steps := int(a.steps)
	pw := (*[dna.NumBases][L]float64)(unsafe.Pointer(a.pw))
	emit := (*[dna.NumBases + 1][dna.NumBases]float64)(unsafe.Pointer(a.emit))
	tab := (*[dna.NumBases + 1][L]float64)(unsafe.Pointer(&a.tab))
	for v, e := range emit {
		for l := range tab[v] {
			tab[v][l] = pw[dna.A][l]*e[dna.A] + pw[dna.C][l]*e[dna.C] + pw[dna.G][l]*e[dna.G] + pw[dna.T][l]*e[dna.T]
		}
	}
	to := steps + 1
	if a.guard != 0 {
		to++
	}
	outM, outX, outY := cells(a.outM, -1, to), cells(a.outX, -1, to), cells(a.outY, -1, to)
	prevM, prevX, prevY := cells(a.prevM, -1, steps), cells(a.prevX, -1, steps), cells(a.prevY, -1, steps)
	ps := cells(a.ps, -1, steps)
	codes := unsafe.Slice((*[L]int32)(unsafe.Pointer(a.codes)), steps)
	tmm, tgm, tmg, tgg, q, entry := a.tmm[0], a.tgm[0], a.tmg[0], a.tgg[0], a.q[0], a.rowEntry[0]
	outM[0], outX[0], outY[0] = [L]float64{}, [L]float64{}, [L]float64{}
	var fm, fy, rs [L]float64
	for c := 1; c <= steps; c++ {
		oM, oX, oY, pc := &outM[c], &outX[c], &outY[c], &ps[c]
		dM, dX, dY, uM, uX := &prevM[c-1], &prevX[c-1], &prevY[c-1], &prevM[c], &prevX[c]
		code := &codes[c-1]
		for l := range oM {
			p := a.tab[code[l]]
			pc[l] = p
			fy[l] = q * (tmg*fm[l] + tgg*fy[l])
			fm[l] = p * (tmm*dM[l] + tgm*(dX[l]+dY[l]) + entry)
			fx := q * (tmg*uM[l] + tgg*uX[l])
			oM[l], oX[l], oY[l] = fm[l], fx, fy[l]
			rs[l] += fm[l] + fx + fy[l]
		}
	}
	scale := (*[L]float64)(unsafe.Pointer(a.scale))
	var inv [L]float64
	for l := range rs {
		if rs[l] <= 0 {
			a.dead[l] = ^uint64(0)
		}
		scale[l], inv[l] = rs[l], 1/rs[l]
		if a.dead[l] != 0 {
			scale[l], inv[l] = 1, 0
		}
	}
	for c := 1; c <= steps; c++ {
		oM, oX, oY := &outM[c], &outX[c], &outY[c]
		for l := range inv {
			oM[l] *= inv[l]
			oX[l] *= inv[l]
			oY[l] *= inv[l]
		}
	}
	if a.guard != 0 {
		c := steps + 1
		outM[c], outX[c], outY[c] = [L]float64{}, [L]float64{}, [L]float64{}
	}
}

// backwardRowGo is backwardRowAVX2. Its views start at the left guard
// lo-1, so column j is view cell j-lo+1: iv = 1/scale[i+1]; column m when
// the band reaches it (bxm = bX[i+1][m]*iv, bM = tmgq*bxm, bX = tggq*bxm,
// bY = 0), else the right guard at hi+1; then j descending over
// [lo, min(hi, m-1)]:
//
//	diag = (ps[i+1][j+1] * bM[i+1][j+1]) * iv
//	bx   = bX[i+1][j] * iv
//	by   = bY[i][j+1]              (carried from the previous step)
//	bM[i][j] = tmm*diag + tmgq*bx + tmgq*by
//	bX[i][j] = tgm*diag + tggq*bx
//	bY[i][j] = tgm*diag + tggq*by
//
// and the left guard.
//
//go:norace
func backwardRowGo(a *bwdRow8) {
	const L = simdLanes
	steps := int(a.steps)
	to := 2 // through column hi+1: the right guard and the next row's reads
	if a.atM != 0 {
		to = 1
	}
	outM, outX, outY := cells(a.outM, -steps, to), cells(a.outX, -steps, to), cells(a.outY, -steps, to)
	nextM, nextX, ps := cells(a.nextM, -steps, to), cells(a.nextX, -steps, to), cells(a.ps, -steps, to)
	tmm, tgm, tmgq, tggq := a.tmm, a.tgm, a.tmgq, a.tggq
	scale := (*[L]float64)(unsafe.Pointer(a.scale))
	var iv, by [L]float64
	for l := range iv {
		iv[l] = 1 / scale[l]
	}
	c := steps
	if a.atM != 0 {
		oM, oX, oY, nX := &outM[c], &outX[c], &outY[c], &nextX[c]
		for l := range iv {
			bxm := nX[l] * iv[l]
			oM[l], oX[l], oY[l] = tmgq*bxm, tggq*bxm, 0
		}
		c--
	} else {
		outM[c+1], outX[c+1], outY[c+1] = [L]float64{}, [L]float64{}, [L]float64{}
	}
	for ; c >= 1; c-- {
		oM, oX, oY := &outM[c], &outX[c], &outY[c]
		dP, dM, nX := &ps[c+1], &nextM[c+1], &nextX[c]
		for l := range iv {
			diag := dP[l] * dM[l] * iv[l]
			bx := nX[l] * iv[l]
			oM[l] = tmm*diag + tmgq*bx + tmgq*by[l]
			oX[l] = tgm*diag + tggq*bx
			by[l] = tgm*diag + tggq*by[l]
			oY[l] = by[l]
		}
	}
	outM[0], outX[0], outY[0] = [L]float64{}, [L]float64{}, [L]float64{}
}

// logLikGo is logLikAVX2 with math.Log itself, so no lane is ever bad:
// sum[l] = log(sum[l]) + log(rows[1][l]) + ... + log(rows[n][l]), added
// in that order.
//
//go:norace
func logLikGo(a *logSum8) {
	rows := unsafe.Slice((*[simdLanes]float64)(unsafe.Pointer(a.rows)), a.n)
	for l := range a.sum {
		s := math.Log(a.sum[l])
		for i := range rows {
			s += math.Log(rows[i][l])
		}
		a.sum[l] = s
	}
	a.bad = 0
}

// extractRowGo is extractRowAVX2, j ascending over [lo, hi]:
//
//	pm         = (fM[i][j] * bM[i][j]) * inv
//	z[j][k]   += pm * wt[k]                      k = A, C, G, T
//	z[j][gap] += (fY[i][j] * bY[i][j]) * inv
//
//go:norace
func extractRowGo(a *zRow8) {
	const L = simdLanes
	steps := int(a.steps)
	fM, bM, fY, bY := cells(a.fM, 0, steps), cells(a.bM, 0, steps), cells(a.fY, 0, steps), cells(a.bY, 0, steps)
	z := unsafe.Slice((*[dna.NumChannels][L]float64)(unsafe.Pointer(a.z)), steps)
	wt := (*[dna.NumBases][L]float64)(unsafe.Pointer(a.wt))
	inv := (*[L]float64)(unsafe.Pointer(a.inv))
	for c := range z {
		zc, pM, qM, pY, qY := &z[c], &fM[c], &bM[c], &fY[c], &bY[c]
		for l := range inv {
			pm := pM[l] * qM[l] * inv[l]
			for k := range wt {
				zc[k][l] += pm * wt[k][l]
			}
			zc[dna.ChGap][l] += pY[l] * qY[l] * inv[l]
		}
	}
}
