package genome

import (
	"fmt"

	"gnumap/internal/dna"
)

// fracDenom is the denominator of the byte fractions. The paper's text
// mentions both 128 and 255; we use the full byte range 255 for maximum
// resolution and document the choice in DESIGN.md.
const fracDenom = 255

// charDiscAcc is the CHARDISC layout: per position, one float32 total
// plus five byte numerators over fracDenom. The real value of channel k
// is total · frac[k] / 255. total and frac are the store's floats and
// bytes under the names the layout's arithmetic reads.
type charDiscAcc struct {
	store
	total []float32 // len = length
	frac  []uint8   // len = 5·length
}

func newCharDiscAcc(length int) *charDiscAcc {
	total, frac := make([]float32, length), make([]uint8, dna.NumChannels*length)
	return &charDiscAcc{newStore(CharDisc, length, total, frac), total, frac}
}

// quantize converts a non-negative channel vector with the given total
// into byte numerators summing exactly to fracDenom, using
// largest-remainder rounding so no channel is starved systematically.
func quantize(v *Vec, total float64, out []uint8) {
	if total <= 0 {
		for k := range out {
			out[k] = 0
		}
		return
	}
	var floors [dna.NumChannels]int
	var rems [dna.NumChannels]float64
	sum := 0
	for k := 0; k < dna.NumChannels; k++ {
		exact := v[k] / total * fracDenom
		f := int(exact)
		if f > fracDenom {
			f = fracDenom
		}
		floors[k] = f
		rems[k] = exact - float64(f)
		sum += f
	}
	// Distribute the remaining units to the largest remainders.
	for sum < fracDenom {
		best, bestRem := -1, -1.0
		for k := 0; k < dna.NumChannels; k++ {
			if rems[k] > bestRem {
				best, bestRem = k, rems[k]
			}
		}
		if best < 0 {
			break
		}
		floors[best]++
		rems[best] = -2 // consumed
		sum++
	}
	for k := 0; k < dna.NumChannels; k++ {
		out[k] = uint8(floors[k])
	}
}

// realVec reconstructs the real-space channel vector at a position,
// total · frac[k] / 255. Caller must hold the stripe lock, or writers
// are quiesced.
func (a *charDiscAcc) realVec(pos int) Vec {
	var v Vec
	t := float64(a.total[pos])
	if t <= 0 {
		return v
	}
	base := pos * dna.NumChannels
	for k := 0; k < dna.NumChannels; k++ {
		v[k] = t * float64(a.frac[base+k]) / fracDenom
	}
	return v
}

func (a *charDiscAcc) AddRange(start int, zs []Vec, weight float64) {
	from, to, zsFrom, ok := clampRange(start, len(zs), a.length)
	if !ok {
		return
	}
	lkFirst, lkLast := lockRange(a.locks, from, to)
	defer unlockRange(a.locks, lkFirst, lkLast)
	a.mark(from, to)
	for pos := from; pos < to; pos++ {
		z := &zs[zsFrom+pos-from]
		v := a.realVec(pos)
		newTotal := float64(a.total[pos])
		for k := 0; k < dna.NumChannels; k++ {
			d := weight * z[k]
			v[k] += d
			newTotal += d
		}
		a.total[pos] = float32(newTotal)
		quantize(&v, newTotal, a.frac[pos*dna.NumChannels:(pos+1)*dna.NumChannels])
	}
}

func (a *charDiscAcc) Merge(other Accumulator) error {
	o, ok := other.(*charDiscAcc)
	if !ok || o.length != a.length {
		return fmt.Errorf("genome: cannot merge %v/%d into CHARDISC/%d", other.Mode(), other.Len(), a.length)
	}
	lkFirst, lkLast := lockRange(a.locks, 0, a.length)
	defer unlockRange(a.locks, lkFirst, lkLast)
	// Every position is re-quantized, even where other holds nothing, and
	// re-quantizing a stored vector is not proven to return its bytes.
	a.markAll()
	for pos := 0; pos < a.length; pos++ {
		ov := o.realVec(pos)
		v := a.realVec(pos)
		t := float64(a.total[pos]) + float64(o.total[pos])
		for k := 0; k < dna.NumChannels; k++ {
			v[k] += ov[k]
		}
		a.total[pos] = float32(t)
		quantize(&v, t, a.frac[pos*dna.NumChannels:(pos+1)*dna.NumChannels])
	}
	return nil
}
