package genome

import (
	"fmt"

	"gnumap/internal/dna"
)

// codebookSize is fixed by the single-byte index.
const codebookSize = 256

// Codebook is the CENTDISC centroid set: 256 channel distributions
// (each summing to 1) sampled with biological weighting — pure-base
// states and transition mixtures (A/G, C/T) are sampled densely,
// transversion mixtures sparsely, following the design of the paper's
// §VI-B-2 (after Lloyd & Snell 2011).
type Codebook struct {
	centroids [codebookSize]Vec
	// mergeTable[i][j] is the nearest centroid to the equal-weight
	// average of centroids i and j — the paper's precomputed reduction
	// lookup for the MPI phase.
	mergeTable [codebookSize][codebookSize]uint8
}

// defaultCodebook is built once; the construction is deterministic.
var defaultCodebook = buildDefaultCodebook()

// DefaultCodebook returns the package-level biologically weighted
// codebook shared by all CENTDISC accumulators.
func DefaultCodebook() *Codebook { return defaultCodebook }

// buildDefaultCodebook enumerates the centroid set. Budget (256):
//   - 1 zero/uniform-free slot: the uniform distribution.
//   - 5 pure states with 5 noise levels each (25).
//   - transition pairs (A,G) and (C,T): 2 pairs × 17 mixture ratios ×
//     3 noise levels = 102 (densest region, as transitions dominate).
//   - transversion pairs (8 pairs: A/C, A/T, C/G, G/T plus the 4
//     base-gap pairs): 8 × 7 ratios × 2 noise = 112.
//   - 16 three-way mixtures for residual coverage.
//
// Total 1 + 25 + 102 + 112 + 16 = 256.
func buildDefaultCodebook() *Codebook {
	cb := &Codebook{}
	idx := 0
	add := func(v Vec) {
		// Normalize defensively; every entry must be a distribution.
		s := 0.0
		for _, x := range v {
			s += x
		}
		if s <= 0 {
			v = Vec{0.2, 0.2, 0.2, 0.2, 0.2}
		} else {
			for k := range v {
				v[k] /= s
			}
		}
		if idx < codebookSize {
			cb.centroids[idx] = v
			idx++
		}
	}
	mix2 := func(a, b int, f, noise float64) Vec {
		var v Vec
		for k := range v {
			v[k] = noise / float64(dna.NumChannels)
		}
		v[a] += (1 - noise) * f
		v[b] += (1 - noise) * (1 - f)
		return v
	}
	// 1: uniform.
	add(Vec{0.2, 0.2, 0.2, 0.2, 0.2})
	// 25: pure states with noise.
	for c := 0; c < dna.NumChannels; c++ {
		for _, noise := range []float64{0, 0.05, 0.1, 0.2, 0.35} {
			add(mix2(c, c, 1, noise))
		}
	}
	// 102: transition mixtures, dense ratios.
	transitions := [][2]int{{int(dna.A), int(dna.G)}, {int(dna.C), int(dna.T)}}
	for _, pr := range transitions {
		for i := 0; i < 17; i++ {
			f := 0.06 + 0.88*float64(i)/16 // 0.06 .. 0.94
			for _, noise := range []float64{0, 0.08, 0.16} {
				add(mix2(pr[0], pr[1], f, noise))
			}
		}
	}
	// 112: transversion and gap mixtures, sparse ratios.
	others := [][2]int{
		{int(dna.A), int(dna.C)}, {int(dna.A), int(dna.T)},
		{int(dna.C), int(dna.G)}, {int(dna.G), int(dna.T)},
		{int(dna.A), int(dna.ChGap)}, {int(dna.C), int(dna.ChGap)},
		{int(dna.G), int(dna.ChGap)}, {int(dna.T), int(dna.ChGap)},
	}
	for _, pr := range others {
		for i := 0; i < 7; i++ {
			f := 0.125 + 0.75*float64(i)/6
			for _, noise := range []float64{0, 0.1} {
				add(mix2(pr[0], pr[1], f, noise))
			}
		}
	}
	// 16: three-way mixtures (two bases + background).
	threeWay := [][2]int{{0, 2}, {1, 3}, {0, 1}, {2, 3}}
	for _, pr := range threeWay {
		for _, f := range []float64{0.4, 0.3} {
			add(addTwo(Vec{0.05, 0.05, 0.05, 0.05, 0.05}, pr[0], pr[1], f))
			add(addTwo(Vec{0.1, 0.1, 0.1, 0.1, 0.1}, pr[0], pr[1], f))
		}
	}
	// Fill any remaining slots (construction drift safety) uniformly.
	for idx < codebookSize {
		add(Vec{0.2, 0.2, 0.2, 0.2, 0.2})
	}
	cb.buildMergeTable()
	return cb
}

// addTwo returns v with (1-sum(v)) split f/(1-f) across channels a
// and b. (Vec is an alias for a plain array type, so this cannot be a
// method.)
func addTwo(v Vec, a, b int, f float64) Vec {
	s := 0.0
	for _, x := range v {
		s += x
	}
	rem := 1 - s
	v[a] += rem * f
	v[b] += rem * (1 - f)
	return v
}

// Nearest returns the codebook index minimizing squared distance to the
// normalized form of v; total is v's mass (0 total maps to uniform).
func (cb *Codebook) Nearest(v *Vec, total float64) uint8 {
	var p Vec
	if total > 0 {
		for k := range p {
			p[k] = v[k] / total
		}
	} else {
		p = Vec{0.2, 0.2, 0.2, 0.2, 0.2}
	}
	best, bestD := 0, 1e30
	for i := 0; i < codebookSize; i++ {
		c := &cb.centroids[i]
		d := 0.0
		for k := 0; k < dna.NumChannels; k++ {
			diff := p[k] - c[k]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return uint8(best)
}

// Centroid returns centroid i (a distribution over five channels).
func (cb *Codebook) Centroid(i uint8) Vec { return cb.centroids[i] }

// buildMergeTable precomputes nearest-centroid results for equal-weight
// pairwise merges (the paper's table-lookup reduction).
func (cb *Codebook) buildMergeTable() {
	for i := 0; i < codebookSize; i++ {
		for j := i; j < codebookSize; j++ {
			var avg Vec
			for k := 0; k < dna.NumChannels; k++ {
				avg[k] = (cb.centroids[i][k] + cb.centroids[j][k]) / 2
			}
			n := cb.Nearest(&avg, 1)
			cb.mergeTable[i][j] = n
			cb.mergeTable[j][i] = n
		}
	}
}

// MergeEqual returns the precomputed nearest centroid for an
// equal-weight merge of centroids i and j.
func (cb *Codebook) MergeEqual(i, j uint8) uint8 { return cb.mergeTable[i][j] }

// MemoryBytes reports the codebook footprint (shared across positions).
func (cb *Codebook) MemoryBytes() int64 {
	return int64(codebookSize)*dna.NumChannels*8 + codebookSize*codebookSize
}

// centDiscAcc is the CENTDISC layout: per position, one float32 total
// plus a single codebook byte.
type centDiscAcc struct {
	length int
	total  []float32
	code   []uint8
	cb     *Codebook
	tiles
}

func newCentDiscAcc(length int) *centDiscAcc {
	return &centDiscAcc{
		length: length,
		total:  make([]float32, length),
		code:   make([]uint8, length),
		cb:     DefaultCodebook(),
		tiles:  newTiles(length),
	}
}

func (a *centDiscAcc) Len() int   { return a.length }
func (a *centDiscAcc) Mode() Mode { return CentDisc }

// AddRange applies the paper's *online* centroid update (§VI-B-2): the
// incoming per-position contribution is itself quantized to a centroid,
// and the new state is the precomputed equal-weight table merge of the
// current and incoming centroids. This is the "significant rounding
// approximations each time a new sequence is added" the paper
// identifies as the method's fatal flaw: the merge ignores how much
// mass the position already holds, so one late discordant read drags
// the distribution halfway toward itself — which is what collapses
// CENTDISC's calling precision in Table III.
func (a *centDiscAcc) AddRange(start int, zs []Vec, weight float64) {
	from, to, zsFrom, ok := clampRange(start, len(zs), a.length)
	if !ok {
		return
	}
	lkFirst, lkLast := lockRange(a.locks, from, to)
	defer unlockRange(a.locks, lkFirst, lkLast)
	a.mark(from, to)
	for pos := from; pos < to; pos++ {
		z := &zs[zsFrom+pos-from]
		var mass float64
		for k := 0; k < dna.NumChannels; k++ {
			mass += weight * z[k]
		}
		if mass <= 0 {
			continue
		}
		var incoming Vec
		for k := 0; k < dna.NumChannels; k++ {
			incoming[k] = weight * z[k]
		}
		qIn := a.cb.Nearest(&incoming, mass)
		if a.total[pos] == 0 {
			a.code[pos] = qIn
		} else {
			a.code[pos] = a.cb.MergeEqual(a.code[pos], qIn)
		}
		a.total[pos] += float32(mass)
	}
}

func (a *centDiscAcc) Vector(pos int) Vec {
	lkFirst, lkLast := lockRange(a.locks, pos, pos+1)
	defer unlockRange(a.locks, lkFirst, lkLast)
	t := float64(a.total[pos])
	c := a.cb.Centroid(a.code[pos])
	var v Vec
	if t <= 0 {
		return v
	}
	for k := 0; k < dna.NumChannels; k++ {
		v[k] = t * c[k]
	}
	return v
}

func (a *centDiscAcc) Total(pos int) float64 {
	lkFirst, lkLast := lockRange(a.locks, pos, pos+1)
	defer unlockRange(a.locks, lkFirst, lkLast)
	return float64(a.total[pos])
}

func (a *centDiscAcc) MemoryBytes() int64 {
	// Codebook and merge table are shared, amortized across positions;
	// reported once per accumulator as the paper reports per-process
	// virtual memory.
	return int64(len(a.total))*4 + int64(len(a.code)) + a.cb.MemoryBytes()
}

func (a *centDiscAcc) Merge(other Accumulator) error {
	o, ok := other.(*centDiscAcc)
	if !ok || o.length != a.length {
		return fmt.Errorf("genome: cannot merge %v/%d into CENTDISC/%d", other.Mode(), other.Len(), a.length)
	}
	lkFirst, lkLast := lockRange(a.locks, 0, a.length)
	defer unlockRange(a.locks, lkFirst, lkLast)
	for pos := 0; pos < a.length; pos++ {
		ta, to := float64(a.total[pos]), float64(o.total[pos])
		if to == 0 {
			continue
		}
		a.writes[pos>>stripeShift]++
		switch {
		case ta == 0:
			a.total[pos] = o.total[pos]
			a.code[pos] = o.code[pos]
		case ta == to:
			// The paper's fast path: equal totals reduce via the
			// precomputed pairwise table.
			a.code[pos] = a.cb.MergeEqual(a.code[pos], o.code[pos])
			a.total[pos] = float32(ta + to)
		default:
			ca := a.cb.Centroid(a.code[pos])
			co := a.cb.Centroid(o.code[pos])
			var v Vec
			for k := 0; k < dna.NumChannels; k++ {
				v[k] = ta*ca[k] + to*co[k]
			}
			t := ta + to
			a.total[pos] = float32(t)
			a.code[pos] = a.cb.Nearest(&v, t)
		}
	}
	return nil
}
