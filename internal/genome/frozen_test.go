package genome

import (
	"math/rand"
	"testing"
)

// Property: a frozen view is bit-identical to the locked interface on
// every position — Vector and Total — for every mode, including after
// a Merge and after a state snapshot. The post-map
// sweep swaps the locked reads for a Frozen view on exactly this
// guarantee.
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

// requireFrozenEqual checks Freeze(acc) against acc position by
// position, requiring exact float equality.
func requireFrozenEqual(t *testing.T, acc Accumulator, when string) {
	t.Helper()
	fz, err := Freeze(acc)
	if err != nil {
		t.Fatalf("%s: Freeze: %v", when, err)
	}
	if fz.Len() != acc.Len() {
		t.Fatalf("%s: frozen Len = %d, want %d", when, fz.Len(), acc.Len())
	}
	for pos := 0; pos < acc.Len(); pos++ {
		if got, want := fz.Vector(pos), acc.Vector(pos); got != want {
			t.Fatalf("%s: Vector(%d) = %v via frozen view, %v via locks", when, pos, got, want)
		}
		if got, want := fz.Total(pos), acc.Total(pos); got != want {
			t.Fatalf("%s: Total(%d) = %v via frozen view, %v via locks", when, pos, got, want)
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
	fz, err := Freeze(norm)
	if err != nil {
		t.Fatal(err)
	}
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
		if got, want := float64(p[3]), norm.Vector(3)[k]; got != want {
			t.Errorf("plane %d at 3 = %v, want %v", k, got, want)
		}
	}

	cd, err := New(CharDisc, 64)
	if err != nil {
		t.Fatal(err)
	}
	cd.AddRange(3, []Vec{{0.5, 0.2, 0.2, 0.1, 0}}, 2)
	cfz, err := Freeze(cd)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfz.PlaneWindow(0, 64); ok {
		t.Error("CharDisc view has channel planes")
	}
	if got, want := cfz.Total(3), cd.Total(3); got != want {
		t.Errorf("frozen Total(3) = %v, want %v", got, want)
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
	norm := feed(t, Norm, L, randomStream(rng, 120, L, L/3))
	fz, err := Freeze(norm)
	if err != nil {
		t.Fatal(err)
	}
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
			dfz, err := Freeze(acc)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := dfz.PlaneWindow(0, L); ok {
				t.Error("discrete view handed out a plane window")
			}
			for pos := 0; pos < L; pos++ {
				if got, want := dfz.Total(pos), acc.Total(pos); got != want {
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
	fz, err := Freeze(acc)
	if err != nil {
		t.Fatal(err)
	}
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
			for pos := 0; pos < L; pos++ {
				if got, want := stale.Vector(pos), acc.Vector(pos); got != want {
					t.Fatalf("position %d: loaded %v, source %v", pos, got, want)
				}
			}
		})
	}
}
