package genome

import (
	"fmt"

	"gnumap/internal/dna"
)

// Frozen is a lock-free, read-only view of an accumulator's per-position
// state. It aliases the accumulator's arrays rather than copying them,
// so freezing is O(1); the view is only coherent while writers are
// quiesced (mapping finished, or the streaming pipeline parked at a
// checkpoint barrier). Vector and Total reproduce the locked
// Accumulator paths' arithmetic exactly — same loads, same conversion
// and summation order — so a sweep over a Frozen view is bit-identical
// to one over the locked accumulator, minus the per-position stripe
// lock round trip.
//
// The post-map LRT sweep, the pileup writer, and the coverage summary
// all read through Frozen views; the accumulator's locks exist for the
// mapping phase only.
type Frozen struct {
	mode   Mode
	length int
	// planes are the NORM per-channel position planes (nil otherwise).
	planes [dna.NumChannels][]float32
	// total is the CHARDISC/CENTDISC per-position total plane.
	total []float32
	// frac is the CHARDISC byte-fraction array (5 per position).
	frac []uint8
	// code is the CENTDISC codebook index array, cb its codebook.
	code []uint8
	cb   *Codebook
}

// Freeze returns a frozen view of acc. Accumulator implementations
// outside this package have no frozen form and return an error; callers
// fall back to the locked interface.
func Freeze(acc Accumulator) (*Frozen, error) {
	switch a := acc.(type) {
	case *normAcc:
		f := &Frozen{mode: Norm, length: a.length}
		for k := range f.planes {
			f.planes[k] = a.plane(k)
		}
		return f, nil
	case *charDiscAcc:
		return &Frozen{mode: CharDisc, length: a.length, total: a.total, frac: a.frac}, nil
	case *centDiscAcc:
		return &Frozen{mode: CentDisc, length: a.length, total: a.total, code: a.code, cb: a.cb}, nil
	default:
		return nil, fmt.Errorf("genome: %T has no frozen view", acc)
	}
}

// Len returns the number of positions.
func (f *Frozen) Len() int { return f.length }

// Mode returns the underlying accumulator's memory layout.
func (f *Frozen) Mode() Mode { return f.mode }

// Vector returns the accumulated channel totals at a position,
// bit-identical to Accumulator.Vector on the source accumulator.
func (f *Frozen) Vector(pos int) Vec {
	var v Vec
	switch f.mode {
	case Norm:
		for k := 0; k < dna.NumChannels; k++ {
			v[k] = float64(f.planes[k][pos])
		}
	case CharDisc:
		t := float64(f.total[pos])
		if t <= 0 {
			return v
		}
		base := pos * dna.NumChannels
		for k := 0; k < dna.NumChannels; k++ {
			v[k] = t * float64(f.frac[base+k]) / fracDenom
		}
	case CentDisc:
		t := float64(f.total[pos])
		if t <= 0 {
			return v
		}
		c := f.cb.Centroid(f.code[pos])
		for k := 0; k < dna.NumChannels; k++ {
			v[k] = t * c[k]
		}
	}
	return v
}

// Total returns the total accumulated mass at a position, bit-identical
// to Accumulator.Total on the source accumulator.
func (f *Frozen) Total(pos int) float64 {
	switch f.mode {
	case CharDisc, CentDisc:
		return float64(f.total[pos])
	default:
		v := f.Vector(pos)
		t := 0.0
		for _, x := range v {
			t += x
		}
		return t
	}
}

// PlaneWindow returns the five channel planes of a NORM view sliced to
// positions [lo, hi), for sweeps that stream every channel in lockstep
// (the vectorized calling prescreen): a plane-streaming sweep asks for
// exactly the window it is about to classify, and the bounds check
// lives here instead of at every call site. The slices alias the
// accumulator's arrays, zero-copy. ok is false for an invalid window
// and for the discretized modes, whose channel state is byte-packed —
// such callers fall back to Vector.
func (f *Frozen) PlaneWindow(lo, hi int) (planes [dna.NumChannels][]float32, ok bool) {
	if f.mode != Norm || lo < 0 || hi > f.length || lo > hi {
		return planes, false
	}
	for k := range planes {
		planes[k] = f.planes[k][lo:hi:hi]
	}
	return planes, true
}
