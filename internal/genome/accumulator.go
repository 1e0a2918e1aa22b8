// Package genome implements the per-position nucleotide-probability
// accumulators at the heart of GNUMAP-SNP's online SNP calling, in the
// paper's three memory layouts:
//
//   - NORM (paper "NORM"): five float32 values per genome position —
//     the straightforward layout, ~20 bytes/base.
//   - CHARDISC (paper §VI-B-1, "nucleotide-byte discretization"): one
//     float32 running total plus five single-byte channel fractions per
//     position, ~9 bytes/base. Fractions quantize to 1/255 units, so
//     late small contributions to a heavily covered position can round
//     to nothing — the saturation behaviour the paper analyzes.
//   - CENTDISC (paper §VI-B-2, "centroid discretization"): one
//     float32 running total plus a single byte indexing a 256-entry
//     codebook of biologically weighted channel distributions,
//     ~5 bytes/base. Every update re-quantizes to the nearest centroid,
//     which is why the paper finds its accuracy collapses.
//
// Writes are concurrent: positions are guarded by striped locks, and
// AddRange locks each stripe once per spanned range rather than once
// per position. Reads go through Freeze once writers quiesce: a Frozen
// view reads the arrays in place, without locks.
package genome

import (
	"fmt"
	"sync"

	"gnumap/internal/dna"
)

// Vec is a per-position channel accumulation (A, C, G, T, gap).
type Vec = [dna.NumChannels]float64

// Mode selects the accumulator memory layout.
type Mode int

const (
	// Norm stores five float32 per position.
	Norm Mode = iota
	// CharDisc stores a float32 total plus five byte fractions.
	CharDisc
	// CentDisc stores a float32 total plus one codebook byte.
	CentDisc
)

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case Norm:
		return "NORM"
	case CharDisc:
		return "CHARDISC"
	case CentDisc:
		return "CENTDISC"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Accumulator is the per-position probability store shared by all
// memory modes. It is written through its methods and read through
// Freeze.
type Accumulator interface {
	// Len returns the number of positions.
	Len() int
	// Mode returns the memory layout.
	Mode() Mode
	// AddRange adds weight·zs[k] to position start+k for every k.
	// Positions outside [0, Len) are ignored (reads can hang off the
	// ends of a node's genome slice).
	AddRange(start int, zs []Vec, weight float64)
	// MemoryBytes reports the approximate heap footprint of the
	// per-position state (the Table II accounting).
	MemoryBytes() int64
	// Merge folds another accumulator of the same mode and length into
	// this one (the MPI reduction step).
	Merge(other Accumulator) error
	// Stateful: every layout serializes, so checkpoints and the cluster
	// reduction need no capability check.
	Stateful
	// shared returns what every layout keeps alike, for the functions
	// written once over all of them (Writes, Reset, Freeze). A value
	// embedding an Accumulator reaches the layout inside it.
	shared() *store
	// realVec rebuilds the channel vector at pos from the stored bytes.
	// The caller holds pos's stripe lock, or writers are quiesced.
	realVec(pos int) Vec
}

// New constructs an accumulator of the given mode and length.
func New(mode Mode, length int) (Accumulator, error) {
	if length <= 0 {
		return nil, fmt.Errorf("genome: accumulator length %d", length)
	}
	switch mode {
	case Norm:
		return newNormAcc(length), nil
	case CharDisc:
		return newCharDiscAcc(length), nil
	case CentDisc:
		return newCentDiscAcc(length), nil
	default:
		return nil, fmt.Errorf("genome: unknown mode %d", int(mode))
	}
}

// EstimateBytes predicts what MemoryBytes reports for one accumulator
// of the given mode and length (CENTDISC's shared codebook aside),
// without allocating it.
func EstimateBytes(mode Mode, length int) int64 {
	l := int64(length)
	switch mode {
	case CharDisc:
		return 9 * l // float32 total + five byte fractions
	case CentDisc:
		return 5 * l // float32 total + one codebook byte
	default:
		return 20 * l // five float32 per position
	}
}

// stripeShift gives 4096-position lock stripes: small enough for low
// contention across workers mapping different genome regions, large
// enough that a read-length range spans at most two stripes.
const stripeShift = 12

// TileSize is the width in positions of one lock stripe, which is also
// the unit of the accumulator's write-set: tile i covers positions
// [i·TileSize, (i+1)·TileSize), the last tile possibly short.
const TileSize = 1 << stripeShift

// store is what every layout keeps alike: its mode and length, its
// per-position arrays as the state codec sees them, and per tile the
// stripe lock guarding its positions and a counter of the writes that
// may have changed them. A counter only moves under its tile's lock —
// AddRange bumps every tile its range spans, Merge, LoadStateBytes and
// Reset every tile whose bytes they may change — so a tile whose
// counter is equal in two Writes snapshots holds the same bytes at
// both. Len, Mode, MemoryBytes and the state codec are written once
// here; a layout adds AddRange, Merge and realVec.
type store struct {
	mode   Mode
	length int
	floats []float32 // NORM: five channel planes; CHARDISC, CENTDISC: per-position totals
	bytes  []uint8   // CHARDISC: five fractions per position; CENTDISC: codebook index
	locks  []sync.Mutex
	writes []uint64
}

func newStore(mode Mode, length int, floats []float32, bytes []uint8) store {
	n := (length + TileSize - 1) >> stripeShift
	return store{mode: mode, length: length, floats: floats, bytes: bytes,
		locks: make([]sync.Mutex, n), writes: make([]uint64, n)}
}

func (s *store) shared() *store { return s }
func (s *store) Len() int       { return s.length }
func (s *store) Mode() Mode     { return s.mode }

// MemoryBytes reports the per-position arrays' footprint.
func (s *store) MemoryBytes() int64 { return 4*int64(len(s.floats)) + int64(len(s.bytes)) }

// plane returns NORM channel k's contiguous per-position slice.
func (s *store) plane(k int) []float32 {
	return s.floats[k*s.length : (k+1)*s.length]
}

// mark counts a write on every tile [from, to) spans (a clamped,
// non-empty range). The caller holds those tiles' locks.
func (s *store) mark(from, to int) {
	for i := from >> stripeShift; i <= (to-1)>>stripeShift; i++ {
		s.writes[i]++
	}
}

// markAll counts a write on every tile. The caller holds every lock.
func (s *store) markAll() {
	for i := range s.writes {
		s.writes[i]++
	}
}

// Writes copies acc's per-tile write counters into dst (reallocating
// when dst is short) and returns it: one counter per TileSize positions.
// It takes the stripe locks the way State does, so it is coherent
// whenever writers are quiesced.
func Writes(acc Accumulator, dst []uint64) []uint64 {
	s := acc.shared()
	first, last := lockRange(s.locks, 0, s.length)
	defer unlockRange(s.locks, first, last)
	return append(dst[:0], s.writes...)
}

// Reset zeroes an accumulator's per-position state in place: a cluster
// rank resets at a quiesce barrier after shipping its state and goes on
// accumulating into the same arrays. Every tile counts a write. Writers
// must be quiesced.
func Reset(acc Accumulator) {
	s := acc.shared()
	clear(s.floats)
	clear(s.bytes)
	s.markAll()
}

// lockRange locks every stripe covering [start, end) and returns the
// stripe span to hand back to unlockRange. Stripes are acquired in
// ascending order, so concurrent overlapping ranges cannot deadlock.
// (Returning the span instead of an unlock closure keeps AddRange off
// the heap — this is the mapper's per-alignment hot path.)
func lockRange(locks []sync.Mutex, start, end int) (first, last int) {
	first = start >> stripeShift
	last = (end - 1) >> stripeShift
	if first < 0 {
		first = 0
	}
	if last >= len(locks) {
		last = len(locks) - 1
	}
	for s := first; s <= last; s++ {
		locks[s].Lock()
	}
	return first, last
}

// unlockRange releases the stripes acquired by the matching lockRange.
func unlockRange(locks []sync.Mutex, first, last int) {
	for s := first; s <= last; s++ {
		locks[s].Unlock()
	}
}

// clampRange clips an update range to [0, length) and returns the
// corresponding slice offsets into zs.
func clampRange(start, n, length int) (from, to, zsFrom int, ok bool) {
	from, to, zsFrom = start, start+n, 0
	if from < 0 {
		zsFrom = -from
		from = 0
	}
	if to > length {
		to = length
	}
	if from >= to {
		return 0, 0, 0, false
	}
	return from, to, zsFrom, true
}

// normAcc is the NORM layout: a flat float32 array, five per position,
// stored plane-major (struct of arrays): channel k occupies
// floats[k·length : (k+1)·length]. The post-map LRT sweep, pileup, and
// coverage paths stream whole channel planes through a frozen view
// (Freeze), so the read side is sequential over contiguous memory
// instead of strided through a position-major interleave. Per-cell
// arithmetic is unchanged by the transpose — each cell accumulates the
// same float32 additions in the same order — so the layouts are
// bit-identical in value. The serialized wire format (State) remains
// position-major for compatibility; see state.go.
type normAcc struct{ store }

func newNormAcc(length int) *normAcc {
	return &normAcc{newStore(Norm, length, make([]float32, dna.NumChannels*length), nil)}
}

func (a *normAcc) realVec(pos int) Vec {
	var v Vec
	for k := 0; k < dna.NumChannels; k++ {
		v[k] = float64(a.floats[k*a.length+pos])
	}
	return v
}

func (a *normAcc) AddRange(start int, zs []Vec, weight float64) {
	from, to, zsFrom, ok := clampRange(start, len(zs), a.length)
	if !ok {
		return
	}
	lkFirst, lkLast := lockRange(a.locks, from, to)
	defer unlockRange(a.locks, lkFirst, lkLast)
	a.mark(from, to)
	for k := 0; k < dna.NumChannels; k++ {
		pk := a.plane(k)
		zi := zsFrom - from
		for pos := from; pos < to; pos++ {
			pk[pos] += float32(weight * zs[zi+pos][k])
		}
	}
}

func (a *normAcc) Merge(other Accumulator) error {
	o, ok := other.(*normAcc)
	if !ok || o.length != a.length {
		return fmt.Errorf("genome: cannot merge %v/%d into NORM/%d", other.Mode(), other.Len(), a.length)
	}
	lkFirst, lkLast := lockRange(a.locks, 0, a.length)
	defer unlockRange(a.locks, lkFirst, lkLast)
	// Tile by tile, adding only what other holds: a tile where it holds
	// no mass keeps its bytes and stays unmarked.
	for i := range a.writes {
		from, to := i<<stripeShift, min((i+1)<<stripeShift, a.length)
		moved := false
		for k := 0; k < dna.NumChannels; k++ {
			dst, src := a.plane(k)[from:to], o.plane(k)[from:to]
			for pos, v := range src {
				if v != 0 {
					dst[pos] += v
					moved = true
				}
			}
		}
		if moved {
			a.writes[i]++
		}
	}
	return nil
}
