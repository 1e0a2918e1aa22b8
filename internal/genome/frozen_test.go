package genome

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"gnumap/internal/dna"
)

// view freezes acc for a test's reads (the accumulator's only read path).
func view(t *testing.T, acc Accumulator) *Frozen {
	t.Helper()
	fz, err := Freeze(acc)
	if err != nil {
		t.Fatal(err)
	}
	return fz
}

// Property: a frozen view reads exactly what the layout stores, on every
// position — Vector and Total — for every mode, including after a Merge
// and after a state snapshot. The reference does not go through the
// view: it decodes the accumulator's own State blob.
func TestFrozenBitIdenticalToAccumulator(t *testing.T) {
	const L = 2048
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			acc := feed(t, mode, L, randomStream(rng, 600, L, L/2))

			requireFrozenEqual(t, acc, "after feed")

			// Merge more state in, snapshot, and re-check: freezing must
			// track every mutation path, not just AddRange.
			other := feed(t, mode, L, randomStream(rng, 300, L, L/2))
			if err := acc.Merge(other); err != nil {
				t.Fatalf("Merge: %v", err)
			}
			stateOf(t, acc)
			requireFrozenEqual(t, acc, "after merge+snapshot")
		})
	}
}

// stateReference rebuilds every position's vector and total from the
// raw arrays of acc's State blob: NORM's position-major floats (the
// total is their sum in channel order), CHARDISC's total × frac / 255,
// CENTDISC's total × DefaultCodebook().Centroid(code).
func stateReference(t *testing.T, acc Accumulator) (vecs []Vec, totals []float64) {
	t.Helper()
	blob := stateOf(t, acc)
	nf := int(binary.LittleEndian.Uint64(blob[stateHdrLen:]))
	floats := make([]float32, nf)
	for i := range floats {
		floats[i] = math.Float32frombits(binary.LittleEndian.Uint32(blob[stateHdrLen+8+4*i:]))
	}
	raw := blob[stateHdrLen+8+4*nf+8:]
	vecs, totals = make([]Vec, acc.Len()), make([]float64, acc.Len())
	for pos := range vecs {
		v := &vecs[pos]
		switch acc.Mode() {
		case Norm:
			for k := range v {
				v[k] = float64(floats[pos*dna.NumChannels+k])
				totals[pos] += v[k]
			}
		case CharDisc:
			totals[pos] = float64(floats[pos])
			for k := range v {
				v[k] = totals[pos] * float64(raw[pos*dna.NumChannels+k]) / 255
			}
		case CentDisc:
			totals[pos] = float64(floats[pos])
			c := DefaultCodebook().Centroid(raw[pos])
			for k := range v {
				v[k] = totals[pos] * c[k]
			}
		}
	}
	return vecs, totals
}

// requireFrozenEqual checks Freeze(acc) against stateReference position
// by position, requiring exact float equality.
func requireFrozenEqual(t *testing.T, acc Accumulator, when string) {
	t.Helper()
	fz := view(t, acc)
	if fz.Len() != acc.Len() || fz.Mode() != acc.Mode() {
		t.Fatalf("%s: frozen %v/%d, accumulator %v/%d", when, fz.Mode(), fz.Len(), acc.Mode(), acc.Len())
	}
	vecs, totals := stateReference(t, acc)
	for pos := range vecs {
		if got := fz.Vector(pos); got != vecs[pos] {
			t.Fatalf("%s: Vector(%d) = %v via frozen view, %v from the state blob", when, pos, got, vecs[pos])
		}
		if got := fz.Total(pos); got != totals[pos] {
			t.Fatalf("%s: Total(%d) = %v via frozen view, %v from the state blob", when, pos, got, totals[pos])
		}
	}
}

// The lock-free twin bench/ times freezes like the striped accumulator
// it mirrors: same arrays, same arithmetic, no locks either side.
func TestFrozenSharded(t *testing.T) {
	const L = 1024
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			tw := twin(t, mode, L)
			for _, ev := range randomStream(rand.New(rand.NewSource(13)), 300, L, L/2) {
				tw.AddRange(ev.start, ev.zs, ev.weight)
			}
			requireFrozenEqual(t, tw, "lock-free twin")
		})
	}
}

func TestFrozenPlaneAccessors(t *testing.T) {
	norm, err := New(Norm, 64)
	if err != nil {
		t.Fatal(err)
	}
	norm.AddRange(3, []Vec{{0.5, 0.2, 0.2, 0.1, 0}}, 2)
	fz := view(t, norm)
	if fz.Mode() != Norm {
		t.Fatalf("Mode = %v, want Norm", fz.Mode())
	}
	planes, ok := fz.PlaneWindow(0, 64)
	if !ok {
		t.Fatal("NORM view refused its whole-range plane window")
	}
	for k, p := range planes {
		if len(p) != 64 {
			t.Fatalf("plane %d length %d, want 64", k, len(p))
		}
		if got, want := float64(p[3]), fz.Vector(3)[k]; got != want {
			t.Errorf("plane %d at 3 = %v, want %v", k, got, want)
		}
	}

	cd, err := New(CharDisc, 64)
	if err != nil {
		t.Fatal(err)
	}
	cd.AddRange(3, []Vec{{0.5, 0.2, 0.2, 0.1, 0}}, 2)
	cfz := view(t, cd)
	if _, ok := cfz.PlaneWindow(0, 64); ok {
		t.Error("CharDisc view has channel planes")
	}
	if got := cfz.Total(3); got != 2 {
		t.Errorf("frozen Total(3) = %v, want 2", got)
	}
}

// The bulk plane accessor feeding the vectorized calling sweep: NORM
// views hand out all five planes (whole or windowed) whose converted
// values match Vector exactly; the discretized modes refuse (ok =
// false) because their channel state is byte-packed — Total carries
// the per-position totals there.
func TestFrozenPlaneIteration(t *testing.T) {
	const L = 96
	rng := rand.New(rand.NewSource(17))
	fz := view(t, feed(t, Norm, L, randomStream(rng, 120, L, L/3)))
	for _, w := range [][2]int{{0, L}, {0, 0}, {5, 5}, {7, 31}, {L - 9, L}} {
		win, ok := fz.PlaneWindow(w[0], w[1])
		if !ok {
			t.Fatalf("PlaneWindow(%d, %d) refused", w[0], w[1])
		}
		for pos := w[0]; pos < w[1]; pos++ {
			want := fz.Vector(pos)
			for k := range win {
				if got := float64(win[k][pos-w[0]]); got != want[k] {
					t.Fatalf("PlaneWindow(%d,%d)[%d][%d] = %v, want %v", w[0], w[1], k, pos-w[0], got, want[k])
				}
			}
		}
	}
	for _, w := range [][2]int{{-1, 4}, {0, L + 1}, {9, 8}} {
		if _, ok := fz.PlaneWindow(w[0], w[1]); ok {
			t.Errorf("PlaneWindow(%d, %d) accepted an invalid window", w[0], w[1])
		}
	}

	for _, mode := range []Mode{CharDisc, CentDisc} {
		t.Run(mode.String(), func(t *testing.T) {
			acc := feed(t, mode, L, randomStream(rng, 120, L, L/3))
			dfz := view(t, acc)
			if _, ok := dfz.PlaneWindow(0, L); ok {
				t.Error("discrete view handed out a plane window")
			}
			_, totals := stateReference(t, acc)
			for pos, want := range totals {
				if got := dfz.Total(pos); got != want {
					t.Fatalf("frozen Total(%d) = %v, want %v", pos, got, want)
				}
			}
		})
	}
}

// What the incremental caller's region cache stands on now that it
// sweeps the accumulator in place instead of a scratch copy: a frozen
// view is a view, not a copy. With no writes in between, two reads of
// it are bit-identical; after writes confined to one area the untouched
// positions keep their exact previous values and the written one shows
// through the view taken before the write.
func TestSnapshotIntoDeterministic(t *testing.T) {
	const L = 1500
	rng := rand.New(rand.NewSource(17))
	acc := feed(t, Norm, L, randomStream(rng, 800, L, L/2))
	fz := view(t, acc)
	first := make([]Vec, L)
	for pos := range first {
		first[pos] = fz.Vector(pos)
	}
	for pos := range first {
		if got := fz.Vector(pos); got != first[pos] {
			t.Fatalf("idle re-read changed position %d: %v -> %v", pos, first[pos], got)
		}
	}
	acc.AddRange(10, []Vec{{0.9, 0.1, 0, 0, 0}}, 1)
	for pos := 100; pos < L; pos++ {
		if got := fz.Vector(pos); got != first[pos] {
			t.Fatalf("write at 10 changed position %d: %v -> %v", pos, first[pos], got)
		}
	}
	if got := fz.Vector(10); got == first[10] {
		t.Fatal("write at 10 not visible through the view frozen before it")
	}
}

// A state snapshot loaded into a striped accumulator replaces what was
// there: the target equals the source exactly in every layout, stale
// mass and all overwritten (resume and the cluster fold's scratch both
// load into accumulators that are not known to be empty).
func TestSnapshotIntoStriped(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			const L = 256
			rng := rand.New(rand.NewSource(19))
			acc := feed(t, mode, L, randomStream(rng, 150, L, L/2))
			stale := feed(t, mode, L, randomStream(rng, 50, L, L/2))
			if err := stale.LoadStateBytes(stateOf(t, acc)); err != nil {
				t.Fatalf("LoadStateBytes: %v", err)
			}
			loaded, source := view(t, stale), view(t, acc)
			for pos := 0; pos < L; pos++ {
				if got, want := loaded.Vector(pos), source.Vector(pos); got != want {
					t.Fatalf("position %d: loaded %v, source %v", pos, got, want)
				}
			}
		})
	}
}
