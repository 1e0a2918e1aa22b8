//go:build !amd64

package phmm

// Off amd64 cpu.HasAVX512 and cpu.HasAVX2 are the constant false, so the
// row dispatch in rows.go never calls these; the names resolve to the Go
// rows.

func forwardRowAVX2(a *fwdRow8)  { forwardRowGo(a) }
func backwardRowAVX2(a *bwdRow8) { backwardRowGo(a) }
func logLikAVX2(a *logSum8)      { logLikGo(a) }
func extractRowAVX2(a *zRow8)    { extractRowGo(a) }

func forwardRowAVX512(a *fwdRow8)  { forwardRowGo(a) }
func backwardRowAVX512(a *bwdRow8) { backwardRowGo(a) }
func extractRowAVX512(a *zRow8)    { extractRowGo(a) }
