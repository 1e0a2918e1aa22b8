//go:build !amd64

package phmm

// Non-amd64 builds always take the generic Go lane loops.

const simdLanes = 8

type fwdRow8 struct {
	outM, outX, outY    *float64
	ps                  *float64
	prevM, prevX, prevY *float64
	codes               *int32
	pw                  *float64
	emit                *float64
	scale               *float64
	steps               int64
	guard               int64
	dead                [simdLanes]uint64
	tab                 [5 * simdLanes]float64
	tmm, tgm, tmg, tgg  [4]float64
	q, rowEntry         [4]float64
}

type bwdRow8 struct {
	outM, outX, outY     *float64
	nextM, nextX         *float64
	ps                   *float64
	scale                *float64
	steps                int64
	atM                  int64
	tmm, tgm, tmgq, tggq float64
}

type logSum8 struct {
	rows *float64
	n    int64
	bad  int64
	sum  [simdLanes]float64
}

type zRow8 struct {
	fM, bM, fY, bY *float64
	z, wt, inv     *float64
	steps          int64
}

func forwardRowAVX2(*fwdRow8)  { panic("phmm: no AVX2 kernel on this architecture") }
func backwardRowAVX2(*bwdRow8) { panic("phmm: no AVX2 kernel on this architecture") }
func logLikAVX2(*logSum8)      { panic("phmm: no AVX2 kernel on this architecture") }
func extractRowAVX2(*zRow8)    { panic("phmm: no AVX2 kernel on this architecture") }
