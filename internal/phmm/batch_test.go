package phmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/fastq"
	"gnumap/internal/pwm"
)

func mustBatchAligner(t *testing.T, mode Mode) *BatchAligner {
	t.Helper()
	b, err := NewBatchAligner(DefaultParams(), mode)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// batchContribsOf runs BatchResult.ContributionsInto into fresh slices.
func batchContribsOf(t *testing.T, res *BatchResult) ([][dna.NumChannels]float64, []float64) {
	t.Helper()
	dst := make([][dna.NumChannels]float64, res.M)
	totals := make([]float64, res.M)
	if err := res.ContributionsInto(ByCall, dst, totals); err != nil {
		t.Fatal(err)
	}
	return dst, totals
}

// requireLaneExact compares one batch lane against the scalar kernel on
// the same pair: LogLik, the terminal and row scale factors, every
// in-band cell of the seven planes (the six DP planes and the emissions
// p*, which Fit's E-step reads) and the contributions must be
// bit-identical (Float64bits, not ==, so -0 and NaN payloads count).
func requireLaneExact(t *testing.T, label string, scalar *refResult, lane *BatchResult) {
	t.Helper()
	if math.Float64bits(scalar.LogLik) != math.Float64bits(lane.LogLik) {
		t.Fatalf("%s: LogLik scalar %v != batch %v", label, scalar.LogLik, lane.LogLik)
	}
	if math.Float64bits(scalar.lScaled) != math.Float64bits(lane.lScaled) {
		t.Fatalf("%s: terminal sum scalar %v != batch %v", label, scalar.lScaled, lane.lScaled)
	}
	a, b := scalar.a, lane.b
	w := scalar.M + 1
	planes := [][2][]float64{{a.fM, b.fM}, {a.fX, b.fX}, {a.fY, b.fY}, {a.bM, b.bM}, {a.bX, b.bX}, {a.bY, b.bY}, {a.pstar, b.pstar}}
	for i := 1; i <= scalar.N; i++ {
		if s, g := a.scale[i], b.scale[i*simdLanes+lane.lane]; math.Float64bits(s) != math.Float64bits(g) {
			t.Fatalf("%s row %d: scale scalar %v != batch %v", label, i, s, g)
		}
		lo, hi := lane.rowBounds(i)
		for j := lo; j <= hi; j++ {
			for k, pl := range planes {
				if s, g := pl[0][i*w+j], pl[1][lane.idx(i, j)]; math.Float64bits(s) != math.Float64bits(g) {
					t.Fatalf("%s (%d,%d) plane %d: scalar %v != batch %v", label, i, j, k, s, g)
				}
			}
		}
	}
	dstS, totS := contribsOf(t, scalar)
	dstB, totB := batchContribsOf(t, lane)
	for j := range dstS {
		if totS[j] != totB[j] {
			t.Fatalf("%s col %d: total scalar %v != batch %v", label, j, totS[j], totB[j])
		}
		if dstS[j] != dstB[j] {
			t.Fatalf("%s col %d: contribs scalar %v != batch %v", label, j, dstS[j], dstB[j])
		}
	}
}

// requireDeadLane checks a lane the scalar kernel just failed on (its
// buffers still hold that run): up to the row where the scalar forward
// pass stopped, the lane's scales and forward rows are the scalar's bit
// for bit; from that row on it follows the dead-lane convention, scale 1
// and rows of +0. Rows the band has left are never written.
func requireDeadLane(t *testing.T, label string, a *refAligner, lane *BatchResult) {
	t.Helper()
	b := lane.b
	w := lane.M + 1
	forward := [][2][]float64{{a.fM, b.fM}, {a.fX, b.fX}, {a.fY, b.fY}}
	died := false
	for i := 1; i <= lane.N; i++ {
		lo, hi := lane.rowBounds(i)
		if lo > hi {
			break
		}
		got := b.scale[i*simdLanes+lane.lane]
		died = died || math.Float64bits(got) != math.Float64bits(a.scale[i])
		if died && got != 1 {
			t.Fatalf("%s row %d: dead lane scale %v, want 1", label, i, got)
		}
		for j := lo; j <= hi; j++ {
			for k, pl := range forward {
				want := pl[0][i*w+j]
				if died {
					want = 0
				}
				if g := pl[1][lane.idx(i, j)]; math.Float64bits(want) != math.Float64bits(g) {
					t.Fatalf("%s (%d,%d) plane %d: dead lane %v, want %v", label, i, j, k, g, want)
				}
			}
		}
	}
}

// requireBatchExact aligns every lane's pair with the scalar kernel and
// holds the lane to it: bit-identical when the scalar kernel succeeds,
// ErrNoAlignment plus the dead-lane convention when it fails. It returns
// the number of dead lanes.
func requireBatchExact(t *testing.T, label string, scalar *refAligner, xs []*pwm.Matrix, ys []dna.Seq, diag, band int, results []BatchResult) (dead int) {
	t.Helper()
	if len(results) != len(xs) {
		t.Fatalf("%s: %d results, want %d", label, len(results), len(xs))
	}
	for l := range results {
		want, err := scalar.AlignBanded(xs[l], ys[l], diag, band)
		lane := &results[l]
		label := fmt.Sprintf("%s lane %d", label, l)
		if (err == nil) != (lane.Err == nil) {
			t.Fatalf("%s: scalar err %v, batch err %v", label, err, lane.Err)
		}
		if err != nil {
			if lane.Err != ErrNoAlignment {
				t.Fatalf("%s: batch err %v, want ErrNoAlignment", label, lane.Err)
			}
			requireDeadLane(t, label, scalar, lane)
			dead++
			continue
		}
		requireLaneExact(t, label, want, lane)
	}
	return dead
}

// kernels names every implementation of the row contract, widest first.
var kernels = []string{"avx512", "avx2", "generic"}

// forEachKernel runs test as one subtest per kernel: "avx512" and "avx2"
// with the assembly rows (each skipped on a host that lacks it) and
// "generic" with both switched off (the Go rows), so one host covers
// every kernel it has.
func forEachKernel(t *testing.T, test func(t *testing.T)) {
	for _, kernel := range kernels {
		t.Run(kernel, func(t *testing.T) {
			if !setKernel(t, kernel) {
				t.Skipf("host cannot run the %s rows", kernel)
			}
			if BatchKernel() != kernel {
				t.Fatalf("BatchKernel() = %q, want %q", BatchKernel(), kernel)
			}
			test(t)
		})
	}
}

// plantAmbiguous overwrites a few bases of y with non-concrete codes —
// N and codes past it, which every emission path must treat as N.
func plantAmbiguous(rng *rand.Rand, y dna.Seq) {
	for k := 0; k < 1+len(y)/10; k++ {
		y[rng.Intn(len(y))] = []dna.Code{dna.N, dna.N + 1, 17, 255}[rng.Intn(4)]
	}
}

// dyingBatch is an 8-lane SemiGlobal batch under zero-tolerance
// emissions (band 2 on diagonal 1) whose lanes die at chosen rows beside
// live ones. The read is ACGACG..., which no two bases of a row's
// three-column band repeat, and the window is the read followed by TT,
// so each row's only match is on the diagonal and all M and GX mass
// stays there; lane l's window has that base replaced by T at row
// dieAt[l] (0: never), which empties that row.
func dyingBatch(t *testing.T) (p Params, xs []*pwm.Matrix, ys []dna.Seq, diag, band int) {
	t.Helper()
	p = DefaultParams()
	for y := range p.Match {
		for k := range p.Match[y] {
			p.Match[y][k] = 0
		}
		p.Match[y][y] = 1
	}
	const n = 40
	read := make(dna.Seq, n)
	for i := range read {
		read[i] = dna.Code(i % 3)
	}
	x, err := pwm.FromSeqUniformError(read, 0)
	if err != nil {
		t.Fatal(err)
	}
	dieAt := [simdLanes]int{0, 5, 0, 1, 17, 0, n, 30}
	for _, row := range dieAt {
		y := append(read.Clone(), dna.T, dna.T)
		if row > 0 {
			y[row-1] = dna.T
		}
		xs, ys = append(xs, x), append(ys, y)
	}
	return p, xs, ys, 1, 2
}

// TestAlignBatchMatchesScalarRandom is the tentpole's bit-exactness
// property test: randomized (read length, window length, diag, band)
// bins in both modes, each batch compared lane-by-lane against scalar
// AlignBanded. Bands include narrow, wide, and full-width (== unbanded)
// geometries; every other batch is 8 lanes (the sweep's width), the
// rest 1 to 8 (padded to 8); windows carry N and other non-concrete codes
// in every lane and half the reads have N rows. Then every padded width
// from 1 to 7 in both modes, banded and not (the mapper's tail groups);
// lanes that die mid-batch beside live ones, and alone; and a band that
// slides off the rectangle part way down. All of it under each kernel's
// rows.
func TestAlignBatchMatchesScalarRandom(t *testing.T) {
	t.Logf("phmm.BatchKernel() = %q on this host", BatchKernel())
	forEachKernel(t, func(t *testing.T) {
		for _, mode := range []Mode{Global, SemiGlobal} {
			rng := rand.New(rand.NewSource(int64(42 + mode)))
			scalar := mustRef(t, mode)
			batch := mustBatchAligner(t, mode)
			for trial := 0; trial < 40; trial++ {
				m := 12 + rng.Intn(80)
				n := m // Global: exact-size windows
				diag := 0
				if mode == SemiGlobal {
					n = 4 + rng.Intn(m-3)
					diag = rng.Intn(m - n + 1)
				}
				band := 0 // full kernel
				switch rng.Intn(3) {
				case 0:
					band = 6 + 2*rng.Intn(6) // narrow
				case 1:
					band = fullWidthBand(n, m) // full-width band
				}
				L := simdLanes
				if trial%2 == 1 {
					L = 1 + rng.Intn(simdLanes)
				}
				xs := make([]*pwm.Matrix, L)
				ys := make([]dna.Seq, L)
				for l := 0; l < L; l++ {
					ys[l] = randomSeq(rng, m)
					if trial%4 < 2 {
						plantAmbiguous(rng, ys[l])
					}
					xs[l] = randomPWM(rng, n)
					if trial%3 == 0 {
						xs[l] = qualityRead(rng, n)
					}
				}
				results, err := batch.AlignBatch(xs, ys, diag, band)
				if err != nil {
					t.Fatalf("mode %v trial %d: AlignBatch: %v", mode, trial, err)
				}
				requireBatchExact(t, fmt.Sprintf("mode %v trial %d", mode, trial), scalar, xs, ys, diag, band, results)
			}
			// Every width below the sweep's, at a banded and an unbanded
			// geometry: the mapper sweeps a bin's tail group, and a bin of
			// one, padded from these lane counts.
			n, m, diag := 40, 40, 0
			if mode == SemiGlobal {
				n, m, diag = 62, 78, 8
			}
			for _, band := range []int{18, 0} {
				for L := 1; L < simdLanes; L++ {
					xs := make([]*pwm.Matrix, L)
					ys := make([]dna.Seq, L)
					for l := range xs {
						xs[l], ys[l] = qualityRead(rng, n), randomSeq(rng, m)
						plantAmbiguous(rng, ys[l])
					}
					results, err := batch.AlignBatch(xs, ys, diag, band)
					if err != nil {
						t.Fatalf("mode %v L=%d band=%d: AlignBatch: %v", mode, L, band, err)
					}
					label := fmt.Sprintf("mode %v L=%d band=%d", mode, L, band)
					if dead := requireBatchExact(t, label, scalar, xs, ys, diag, band, results); dead != 0 {
						t.Fatalf("%s: %d dead lanes", label, dead)
					}
				}
			}
		}

		p, xs, ys, diag, band := dyingBatch(t)
		scalar, err := newRefAligner(p, SemiGlobal)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := NewBatchAligner(p, SemiGlobal)
		if err != nil {
			t.Fatal(err)
		}
		for _, L := range []int{simdLanes, 5} {
			results, err := batch.AlignBatch(xs[:L], ys[:L], diag, band)
			if err != nil {
				t.Fatal(err)
			}
			dead := requireBatchExact(t, fmt.Sprintf("dying L=%d", L), scalar, xs[:L], ys[:L], diag, band, results)
			if dead == 0 || dead == L {
				t.Fatalf("dying L=%d: %d of %d lanes dead, want a mix", L, dead, L)
			}
		}
		// A one-lane sweep whose only lane dies at row 5.
		results, err := batch.AlignBatch(xs[1:2], ys[1:2], diag, band)
		if err != nil {
			t.Fatal(err)
		}
		if dead := requireBatchExact(t, "dying L=1", scalar, xs[1:2], ys[1:2], diag, band, results); dead != 1 {
			t.Fatalf("dying L=1: lane alive, want dead")
		}

		rng := rand.New(rand.NewSource(45))
		scalar, batch = mustRef(t, SemiGlobal), mustBatchAligner(t, SemiGlobal)
		xs, ys = xs[:0], ys[:0]
		for l := 0; l < simdLanes; l++ {
			xs, ys = append(xs, qualityRead(rng, 30)), append(ys, randomSeq(rng, 40))
		}
		// Diagonal 20, radius 2 on a 40-base window: rows past 22 have no
		// column in the band.
		results, err = batch.AlignBatch(xs, ys, 20, 4)
		if err != nil {
			t.Fatal(err)
		}
		if dead := requireBatchExact(t, "band off", scalar, xs, ys, 20, 4, results); dead != simdLanes {
			t.Fatalf("band off: %d of %d lanes dead", dead, simdLanes)
		}
	})
}

// TestAlignBatchEngineShapeExact pins the configurations the engine
// really runs, which the random sweep above only meets by chance: the
// paper's 62-bp read against its 78-bp padded window at diagonal 8, at
// the auto band, a narrow band and unbanded, in batches of every width
// from 1 to 8 (the sweep's; narrower ones are padded), with
// quality-weighted reads carrying N calls and windows carrying
// non-concrete codes in every lane — under each kernel.
func TestAlignBatchEngineShapeExact(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		scalar := mustRef(t, SemiGlobal)
		batch := mustBatchAligner(t, SemiGlobal)
		for _, band := range []int{18, 8, 0} {
			for L := 1; L <= simdLanes; L++ {
				xs := make([]*pwm.Matrix, L)
				ys := make([]dna.Seq, L)
				for l := range xs {
					xs[l], ys[l] = qualityRead(rng, 62), randomSeq(rng, 78)
					plantAmbiguous(rng, ys[l])
				}
				results, err := batch.AlignBatch(xs, ys, 8, band)
				if err != nil {
					t.Fatalf("L=%d band=%d: %v", L, band, err)
				}
				label := fmt.Sprintf("L=%d band=%d", L, band)
				if dead := requireBatchExact(t, label, scalar, xs, ys, 8, band, results); dead != 0 {
					t.Fatalf("%s: %d dead lanes", label, dead)
				}
			}
		}
	})
}

// TestLogLanesMatchesMathLog: the vector log must return math.Log's bits
// for every positive finite input — random bit patterns over the whole
// exponent range, subnormals, every power of two, both sides of and on
// sqrt(2)/2 in many binades, 1 and MaxFloat64 — and its sum over rows
// must be the scalar loop's. A lane holding 0, a negative, ±Inf or NaN,
// at the start or in any row, must be flagged (its sum is redone with
// math.Log) without disturbing the other lanes.
func TestLogLanesMatchesMathLog(t *testing.T) {
	if !setKernel(t, "avx2") {
		t.Skip("host cannot run the avx2 rows")
	}
	rng := rand.New(rand.NewSource(25))
	var xs []float64
	for i := 0; i < 40000; i++ {
		xs = append(xs, math.Float64frombits(1+uint64(rng.Int63n(0x7FF0000000000000-1))))
	}
	for i := 0; i < 500; i++ {
		xs = append(xs, math.Float64frombits(1+uint64(rng.Int63n(1<<52-1)))) // subnormal
	}
	for e := -1074; e <= 1023; e++ {
		xs = append(xs, math.Ldexp(1, e))
	}
	for e := -1072; e <= 1023; e += 3 {
		h := math.Ldexp(math.Sqrt2/2, e)
		xs = append(xs, math.Nextafter(h, 0), h, math.Nextafter(h, math.Inf(1)))
	}
	xs = append(xs, 1, math.Nextafter(1, 0), math.Nextafter(1, 2), math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022)
	for len(xs)%simdLanes != 0 {
		xs = append(xs, 1)
	}

	var noRows [simdLanes]float64
	for at := 0; at < len(xs); at += simdLanes {
		a := logSum8{rows: &noRows[0]}
		copy(a.sum[:], xs[at:])
		logLikAVX2(&a)
		if a.bad != 0 {
			t.Fatalf("lanes %v flagged bad %08b", xs[at:at+simdLanes], a.bad)
		}
		for l, x := range xs[at : at+simdLanes] {
			if want := math.Log(x); math.Float64bits(a.sum[l]) != math.Float64bits(want) {
				t.Fatalf("log(%v) (bits %#x) = %v, math.Log %v", x, math.Float64bits(x), a.sum[l], want)
			}
		}
	}

	// Sums over rows, in the generic loop's order.
	const n = 62
	rows := make([]float64, n*simdLanes)
	sumOf := func(first [simdLanes]float64, l int) float64 {
		s := math.Log(first[l])
		for i := 0; i < n; i++ {
			s += math.Log(rows[i*simdLanes+l])
		}
		return s
	}
	for trial := 0; trial < 200; trial++ {
		var first [simdLanes]float64
		for l := range first {
			first[l] = xs[rng.Intn(len(xs))]
		}
		for i := range rows {
			rows[i] = xs[rng.Intn(len(xs))]
		}
		a := logSum8{rows: &rows[0], n: n, sum: first}
		logLikAVX2(&a)
		for l := range first {
			if want := sumOf(first, l); a.bad != 0 || math.Float64bits(a.sum[l]) != math.Float64bits(want) {
				t.Fatalf("trial %d lane %d: sum %v, scalar loop %v (bad %08b)", trial, l, a.sum[l], want, a.bad)
			}
		}
	}

	specials := []float64{0, math.Copysign(0, -1), -1, -math.SmallestNonzeroFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, sp := range specials {
		for lane := 0; lane < simdLanes; lane++ {
			for _, row := range []int{-1, 0, n - 1} { // -1: the terminal sum
				var first [simdLanes]float64
				for l := range first {
					first[l] = 0.5 + rng.Float64()
				}
				for i := range rows {
					rows[i] = 0.5 + rng.Float64()
				}
				if row < 0 {
					first[lane] = sp
				} else {
					rows[row*simdLanes+lane] = sp
				}
				a := logSum8{rows: &rows[0], n: n, sum: first}
				logLikAVX2(&a)
				if a.bad != 1<<lane {
					t.Fatalf("%v at lane %d row %d: bad %08b", sp, lane, row, a.bad)
				}
				for l := range first {
					if want := sumOf(first, l); l != lane && math.Float64bits(a.sum[l]) != math.Float64bits(want) {
						t.Fatalf("%v at lane %d: lane %d sum %v, want %v", sp, lane, l, a.sum[l], want)
					}
				}
			}
		}
	}
}

// TestAlignBatchMixedDeadLanes builds a Global-mode batch where some
// lanes have zero alignment probability (one-hot reads against
// mismatching windows under a zero-tolerance match matrix): dead lanes
// must report ErrNoAlignment exactly when scalar does, and live lanes
// must stay bit-identical to scalar — lane death may not leak — under
// every kernel's row tail.
func TestAlignBatchMixedDeadLanes(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		p := DefaultParams()
		for y := 0; y < dna.NumBases; y++ {
			for k := 0; k < dna.NumBases; k++ {
				if y == k {
					p.Match[y][k] = 1
				} else {
					p.Match[y][k] = 0
				}
			}
		}
		scalar, err := newRefAligner(p, Global)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := NewBatchAligner(p, Global)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		const n = 20
		window := randomSeq(rng, n)
		mismatched := window.Clone()
		mismatched[0] = dna.Code((int(mismatched[0]) + 1) % 4) // kills the required first match
		const L = 6
		xs := make([]*pwm.Matrix, L)
		ys := make([]dna.Seq, L)
		for l := 0; l < L; l++ {
			x, err := pwm.FromSeqUniformError(window, 0)
			if err != nil {
				t.Fatal(err)
			}
			xs[l] = x
			if l%2 == 1 {
				ys[l] = mismatched
			} else {
				ys[l] = window
			}
		}
		results, err := batch.AlignBatch(xs, ys, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		deadSeen, liveSeen := 0, 0
		for l := 0; l < L; l++ {
			resS, errS := scalar.AlignBanded(xs[l], ys[l], 0, 0)
			if errS != nil {
				if errS != ErrNoAlignment {
					t.Fatalf("lane %d: unexpected scalar error %v", l, errS)
				}
				if results[l].Err != ErrNoAlignment {
					t.Fatalf("lane %d: batch err %v, want ErrNoAlignment", l, results[l].Err)
				}
				deadSeen++
				continue
			}
			if results[l].Err != nil {
				t.Fatalf("lane %d: batch err %v, scalar succeeded", l, results[l].Err)
			}
			requireLaneExact(t, "mixed", resS, &results[l])
			liveSeen++
		}
		if deadSeen == 0 || liveSeen == 0 {
			t.Fatalf("degenerate test setup: %d dead, %d live lanes", deadSeen, liveSeen)
		}
	})
}

// TestAlignBatchBandOffRectangle: a band that slides off the DP
// rectangle must kill the whole batch, mirroring scalar ErrNoAlignment.
func TestAlignBatchBandOffRectangle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	batch := mustBatchAligner(t, SemiGlobal)
	xs := []*pwm.Matrix{randomPWM(rng, 30), randomPWM(rng, 30)}
	ys := []dna.Seq{randomSeq(rng, 40), randomSeq(rng, 40)}
	results, err := batch.AlignBatch(xs, ys, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	for l := range results {
		if results[l].Err != ErrNoAlignment {
			t.Fatalf("lane %d: err %v, want ErrNoAlignment", l, results[l].Err)
		}
	}
}

// TestAlignBatchShapeMismatch: mixed shapes, and more pairs than one
// sweep's lanes, are call-level errors (the engine's binning guarantees
// uniform shapes and cuts bins at MaxBatch; a violation is a bug).
func TestAlignBatchShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	batch := mustBatchAligner(t, SemiGlobal)
	if _, err := batch.AlignBatch(
		[]*pwm.Matrix{randomPWM(rng, 30), randomPWM(rng, 31)},
		[]dna.Seq{randomSeq(rng, 40), randomSeq(rng, 40)}, 5, 18); err == nil {
		t.Fatal("mismatched read lengths accepted")
	}
	if _, err := batch.AlignBatch(
		[]*pwm.Matrix{randomPWM(rng, 30), randomPWM(rng, 30)},
		[]dna.Seq{randomSeq(rng, 40), randomSeq(rng, 41)}, 5, 18); err == nil {
		t.Fatal("mismatched window lengths accepted")
	}
	if _, err := batch.AlignBatch(nil, nil, 0, 0); err == nil {
		t.Fatal("empty batch accepted")
	}
	xs, ys := make([]*pwm.Matrix, MaxBatch+1), make([]dna.Seq, MaxBatch+1)
	for l := range xs {
		xs[l], ys[l] = randomPWM(rng, 30), randomSeq(rng, 40)
	}
	if _, err := batch.AlignBatch(xs, ys, 5, 18); err == nil {
		t.Fatalf("%d-pair batch accepted", len(xs))
	}
}

// TestAlignBatchCellsAccounting: a batch must add exactly what the same
// alignments would have added to the scalar kernel, and to an Aligner's
// one-lane AlignBanded — lanes × band cells, dead lanes included
// (geometry-based, as in the scalar kernel).
func TestAlignBatchCellsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scalar := mustRef(t, SemiGlobal)
	batch := mustBatchAligner(t, SemiGlobal)
	one := mustAligner(t, SemiGlobal)
	const n, m, diag, band, L = 30, 46, 8, 18, 5
	xs := make([]*pwm.Matrix, L)
	ys := make([]dna.Seq, L)
	for l := 0; l < L; l++ {
		xs[l] = randomPWM(rng, n)
		ys[l] = randomSeq(rng, m)
	}
	if _, err := batch.AlignBatch(xs, ys, diag, band); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < L; l++ {
		if _, err := scalar.AlignBanded(xs[l], ys[l], diag, band); err != nil {
			t.Fatal(err)
		}
		if _, err := one.AlignBanded(xs[l], ys[l], diag, band); err != nil {
			t.Fatal(err)
		}
	}
	if one.CellsComputed() != scalar.CellsComputed() {
		t.Fatalf("AlignBanded cells %d != scalar cells %d", one.CellsComputed(), scalar.CellsComputed())
	}
	if batch.CellsComputed() != scalar.CellsComputed() {
		t.Fatalf("batch cells %d != scalar cells %d for the same workload",
			batch.CellsComputed(), scalar.CellsComputed())
	}
	if want := int64(L) * int64(BandCells(n, m, diag, band)); batch.CellsComputed() != want {
		t.Fatalf("batch cells %d, want %d", batch.CellsComputed(), want)
	}
}

// TestAlignBatchReuseAcrossShapes: one BatchAligner must survive
// alternating batch shapes and lane counts (buffer reuse never leaks
// stale state — the same discipline the scalar kernel documents).
func TestAlignBatchReuseAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	scalar := mustRef(t, SemiGlobal)
	batch := mustBatchAligner(t, SemiGlobal)
	shapes := []struct{ n, m, diag, band, L int }{
		{62, 78, 8, 18, 8},
		{20, 24, 2, 6, 3},
		{62, 78, 8, 18, 8},
		{62, 78, 8, 0, 2}, // full kernel after banded
		{62, 78, 8, 18, 7},
		{8, 90, 40, 10, 1}, // single-lane batch
	}
	for si, sh := range shapes {
		xs := make([]*pwm.Matrix, sh.L)
		ys := make([]dna.Seq, sh.L)
		for l := 0; l < sh.L; l++ {
			xs[l] = randomPWM(rng, sh.n)
			ys[l] = randomSeq(rng, sh.m)
		}
		results, err := batch.AlignBatch(xs, ys, sh.diag, sh.band)
		if err != nil {
			t.Fatalf("shape %d: %v", si, err)
		}
		for l := 0; l < sh.L; l++ {
			resS, errS := scalar.AlignBanded(xs[l], ys[l], sh.diag, sh.band)
			if (errS == nil) != (results[l].Err == nil) {
				t.Fatalf("shape %d lane %d: scalar err %v, batch err %v", si, l, errS, results[l].Err)
			}
			if errS != nil {
				continue
			}
			requireLaneExact(t, "reuse", resS, &results[l])
		}
	}
}

// TestAlignBatchAllocFree: a warm BatchAligner performs no heap
// allocations per sweep under any kernel — the mapper-owned scratch
// contract.
func TestAlignBatchAllocFree(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		batch := mustBatchAligner(t, SemiGlobal)
		const L = 8
		xs := make([]*pwm.Matrix, L)
		ys := make([]dna.Seq, L)
		for l := 0; l < L; l++ {
			xs[l] = randomPWM(rng, 62)
			ys[l] = randomSeq(rng, 78)
		}
		dst := make([][dna.NumChannels]float64, 78)
		totals := make([]float64, 78)
		sweep := func() {
			results, err := batch.AlignBatch(xs, ys, 8, 18)
			if err != nil {
				t.Fatal(err)
			}
			for l := range results {
				if err := results[l].ContributionsInto(ByCall, dst, totals); err != nil {
					t.Fatal(err)
				}
			}
		}
		sweep() // warm-up
		if allocs := testing.AllocsPerRun(50, sweep); allocs != 0 {
			t.Fatalf("warm AlignBatch + extraction allocates %.1f objects per sweep, want 0", allocs)
		}
	})
}

// qualityRead is a read with per-base qualities in [2, 41) and N calls
// planted at about one position in eight, so ByCall meets its {1/4} branch
// and ByPWM meets rows that differ from position to position.
func qualityRead(rng *rand.Rand, n int) *pwm.Matrix {
	rd := &fastq.Read{Seq: randomSeq(rng, n), Qual: make([]uint8, n)}
	for i := range rd.Qual {
		rd.Qual[i] = uint8(2 + rng.Intn(39))
		if rng.Intn(8) == 0 {
			rd.Seq[i] = dna.N
		}
	}
	m, err := pwm.FromRead(rd)
	if err != nil {
		panic(err)
	}
	return m
}

// requireExtractionExact asks one lane for its contributions under attr
// and requires the scalar kernel's, bit for bit (so +0 != -0).
func requireExtractionExact(t *testing.T, label string, attr Attribution, scalar *refResult, lane *BatchResult) {
	t.Helper()
	dstS, dstB := make([][dna.NumChannels]float64, scalar.M), make([][dna.NumChannels]float64, lane.M)
	totS, totB := make([]float64, scalar.M), make([]float64, lane.M)
	if err := scalar.ContributionsInto(attr, dstS, totS); err != nil {
		t.Fatal(err)
	}
	if err := lane.ContributionsInto(attr, dstB, totB); err != nil {
		t.Fatal(err)
	}
	for j := range dstS {
		if math.Float64bits(totS[j]) != math.Float64bits(totB[j]) {
			t.Fatalf("%s attr %d col %d: total scalar %v != batch %v", label, attr, j, totS[j], totB[j])
		}
		for k := range dstS[j] {
			if math.Float64bits(dstS[j][k]) != math.Float64bits(dstB[j][k]) {
				t.Fatalf("%s attr %d col %d ch %d: scalar %v != batch %v", label, attr, j, k, dstS[j][k], dstB[j][k])
			}
		}
	}
}

// TestExtractionMatchesScalar is the exactness property test of
// posterior extraction: every lane of batches of 1..8 lanes (all padded
// to the 8-lane stripe the extraction rows sweep), under both
// attributions asked in alternating order of the same batch, on reads
// with quality-weighted rows and N calls, with dead lanes mixed in, must
// reproduce the scalar kernel's ContributionsInto bit for bit — under
// each kernel's rows.
func TestExtractionMatchesScalar(t *testing.T) {
	// Zero-tolerance emissions: a one-hot read against a window with a
	// mismatch has no alignment, which is how lanes die.
	strict := DefaultParams()
	for y := range strict.Match {
		for k := range strict.Match[y] {
			strict.Match[y][k] = 0
		}
		strict.Match[y][y] = 1
	}
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		dead, live := 0, 0
		for trial := 0; trial < 78; trial++ {
			L := 1 + trial%simdLanes
			p, mode := DefaultParams(), SemiGlobal
			n, m, diag, band := 62, 78, 8, 18 // the engine's shape
			xs, ys := make([]*pwm.Matrix, L), make([]dna.Seq, L)
			switch trial % 3 {
			case 0:
				for l := range xs {
					xs[l], ys[l] = qualityRead(rng, n), randomSeq(rng, m)
				}
			case 1:
				m = 12 + rng.Intn(80)
				n = 4 + rng.Intn(m-3)
				diag = rng.Intn(m - n + 1)
				band = []int{0, 6 + 2*rng.Intn(6), fullWidthBand(n, m)}[rng.Intn(3)]
				for l := range xs {
					xs[l], ys[l] = qualityRead(rng, n), randomSeq(rng, m)
				}
			case 2:
				// Global, exact reads (an N matches anything): odd
				// lanes get a window whose first base is wrong.
				p, mode = strict, Global
				n, m, diag, band = 30, 30, 0, 0
				for l := range xs {
					ys[l] = randomSeq(rng, m)
					read := ys[l].Clone()
					read[1+rng.Intn(n-1)] = dna.N
					if l%2 == 1 {
						read[0] = dna.Code((int(read[0]) + 1) % 4)
					}
					x, err := pwm.FromSeqUniformError(read, 0)
					if err != nil {
						t.Fatal(err)
					}
					xs[l] = x
				}
			}
			scalar, err := newRefAligner(p, mode)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := NewBatchAligner(p, mode)
			if err != nil {
				t.Fatal(err)
			}
			results, err := batch.AlignBatch(xs, ys, diag, band)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			// Both attributions of every lane, then the first again:
			// each switch re-extracts the stripe.
			attrs := []Attribution{ByCall, ByPWM, ByCall}
			if trial%2 == 1 {
				attrs = []Attribution{ByPWM, ByCall, ByPWM}
			}
			for _, attr := range attrs {
				for l := range results {
					want, errS := scalar.AlignBanded(xs[l], ys[l], diag, band)
					if (errS == nil) != (results[l].Err == nil) {
						t.Fatalf("trial %d lane %d: scalar err %v, batch err %v", trial, l, errS, results[l].Err)
					}
					if errS != nil {
						dead++
						continue
					}
					live++
					requireExtractionExact(t, fmt.Sprintf("trial %d L=%d lane %d", trial, L, l), attr, want, &results[l])
				}
			}
		}
		if dead == 0 || live == 0 {
			t.Fatalf("degenerate setup: %d dead, %d live lane extractions", dead, live)
		}
	})
}

// TestExtractionFollowsTheBatch: the stripe buffer belongs to one
// AlignBatch. A second batch of the same shape must not be answered
// from the first one's z-vectors.
func TestExtractionFollowsTheBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	scalar := mustRef(t, SemiGlobal)
	batch := mustBatchAligner(t, SemiGlobal)
	for round := 0; round < 3; round++ {
		xs, ys := make([]*pwm.Matrix, simdLanes), make([]dna.Seq, simdLanes)
		for l := range xs {
			xs[l], ys[l] = qualityRead(rng, 62), randomSeq(rng, 78)
		}
		results, err := batch.AlignBatch(xs, ys, 8, 18)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []int{3, 0} {
			want, err := scalar.AlignBanded(xs[l], ys[l], 8, 18)
			if err != nil || results[l].Err != nil {
				t.Fatalf("round %d lane %d: scalar err %v, batch err %v", round, l, err, results[l].Err)
			}
			requireExtractionExact(t, fmt.Sprintf("round %d lane %d", round, l), ByCall, want, &results[l])
		}
	}
}
