package genome

import (
	"errors"

	"gnumap/internal/dna"
)

// Frozen is a lock-free, read-only view of an accumulator's per-position
// state, and the one way to read it. It aliases the accumulator's arrays
// rather than copying them, so freezing is O(1); the view is only
// coherent while writers are quiesced (mapping finished, or the
// streaming pipeline parked at a checkpoint barrier). Vector is the
// layout's own reconstruction from the stored bytes — for CHARDISC the
// one its writes and merges use — so the view reads exactly what the
// layout holds.
//
// The calling sweep, the pileup writer, and the coverage summary all
// read through Frozen views; the accumulator's locks exist for writers
// only.
type Frozen struct {
	s   *store
	acc Accumulator
}

// Freeze returns a frozen view of acc. Its only error is a nil
// accumulator.
func Freeze(acc Accumulator) (*Frozen, error) {
	if acc == nil {
		return nil, errors.New("genome: freeze of a nil accumulator")
	}
	return &Frozen{acc.shared(), acc}, nil
}

// Len returns the number of positions.
func (f *Frozen) Len() int { return f.s.length }

// Mode returns the underlying accumulator's memory layout.
func (f *Frozen) Mode() Mode { return f.s.mode }

// Vector returns the accumulated channel totals at a position.
func (f *Frozen) Vector(pos int) Vec { return f.acc.realVec(pos) }

// Total returns the total accumulated mass at a position: the stored
// total of a discretized layout, the channel sum (in channel order) for
// NORM.
func (f *Frozen) Total(pos int) float64 {
	if f.s.mode != Norm {
		return float64(f.s.floats[pos])
	}
	t := 0.0
	for _, x := range f.Vector(pos) {
		t += x
	}
	return t
}

// PlaneWindow returns the five channel planes of a NORM view sliced to
// positions [lo, hi), for sweeps that stream every channel in lockstep
// (the vectorized calling prescreen): a plane-streaming sweep asks for
// exactly the window it is about to classify, and the bounds check
// lives here instead of at every call site. The slices alias the
// accumulator's arrays, zero-copy. ok is false for an invalid window
// and for the discretized modes, whose channel state is byte-packed —
// such callers read Vector.
func (f *Frozen) PlaneWindow(lo, hi int) (planes [dna.NumChannels][]float32, ok bool) {
	if f.s.mode != Norm || lo < 0 || hi > f.s.length || lo > hi {
		return planes, false
	}
	for k := range planes {
		planes[k] = f.s.plane(k)[lo:hi:hi]
	}
	return planes, true
}
