//go:build !amd64

package phmm

// Non-amd64 builds always take the generic Go lane loops.

const simdLanes = 8

type fwdRow8 struct {
	outM, outX, outY    *float64
	ps                  *float64
	prevM, prevX, prevY *float64
	rs                  *float64
	steps               int64
	tmm, tgm, tmg, tgg  float64
	q, rowEntry         float64
}

type scaleRow8 struct {
	pM, pX, pY *float64
	inv        *float64
	steps      int64
}

type bwdRow8 struct {
	outM, outX, outY     *float64
	nextM, nextX         *float64
	ps                   *float64
	iv                   *float64
	steps                int64
	tmm, tgm, tmgq, tggq float64
}

type zRow8 struct {
	fM, bM, fY, bY *float64
	z, wt, inv     *float64
	steps          int64
}

func forwardRowAVX2(*fwdRow8)  { panic("phmm: no AVX2 kernel on this architecture") }
func scaleRowAVX2(*scaleRow8)  { panic("phmm: no AVX2 kernel on this architecture") }
func backwardRowAVX2(*bwdRow8) { panic("phmm: no AVX2 kernel on this architecture") }
func extractRowAVX2(*zRow8)    { panic("phmm: no AVX2 kernel on this architecture") }
