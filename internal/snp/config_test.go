package snp

import (
	"reflect"
	"testing"

	"gnumap/internal/genome"
	"gnumap/internal/lrt"
)

// prefixOf copies positions [0, length) of a NORM accumulator into a
// fresh accumulator of that length: one shorter than its reference.
func prefixOf(t *testing.T, acc genome.Accumulator, length int) genome.Accumulator {
	t.Helper()
	w, err := genome.New(genome.Norm, length)
	if err != nil {
		t.Fatal(err)
	}
	fz := view(t, acc)
	for i := 0; i < length; i++ {
		if v := fz.Vector(i); v != (genome.Vec{}) {
			w.AddRange(i, []genome.Vec{v}, 1)
		}
	}
	return w
}

// Every range-taking sweep clamps through clampSweep; the boundary
// cases (negative from, to past the accumulator and reference, empty
// and inverted ranges) must clamp to the full sweep or to nothing.
func TestCollectRangeBoundaryClamps(t *testing.T) {
	ref, acc := fixture(t)
	cfg := Config{Ploidy: lrt.Monoploid}

	full, fullSt, err := CollectRange(ref, acc, 0, ref.Len(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("fixture produced no candidates")
	}

	cases := []struct {
		name     string
		from, to int
	}{
		{"from negative", -100, ref.Len()},
		{"to past end", 0, ref.Len() + 100},
		{"both out of range", -7, ref.Len() + 7},
	}
	for _, c := range cases {
		got, st, err := CollectRange(ref, acc, c.from, c.to, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, full) || st != fullSt {
			t.Errorf("%s: clamped sweep differs from full sweep", c.name)
		}
	}

	for _, c := range []struct {
		name     string
		from, to int
	}{
		{"empty", 10, 10},
		{"inverted", 30, 10},
		{"entirely past end", ref.Len() + 5, ref.Len() + 25},
		{"entirely before start", -25, -5},
	} {
		got, st, err := CollectRange(ref, acc, c.from, c.to, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != 0 || st.Tested != 0 {
			t.Errorf("%s: got %d candidates, %d tested; want none", c.name, len(got), st.Tested)
		}
	}
}

// With an accumulator shorter than the reference the sweep clamps to
// the accumulator, not just the reference.
func TestCollectRangeClampsToAccumulatorWindow(t *testing.T) {
	ref, acc := fixture(t) // ref.Len() == acc.Len() == 50
	cfg := Config{Ploidy: lrt.Monoploid}
	// The accumulator covers only [0, 25), which leaves out the SNP at 30:
	// sweeping the whole reference must equal sweeping exactly [0, 25).
	short := prefixOf(t, acc, 25)
	windowed, wst, err := CollectRange(ref, short, 0, ref.Len(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, est, err := CollectRange(ref, short, 0, 25, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(windowed) == 0 || !reflect.DeepEqual(windowed, exact) || wst != est {
		t.Fatal("whole-reference sweep over a short accumulator differs from the exact sweep")
	}
	for _, c := range windowed {
		if c.Call.GlobalPos >= 25 {
			t.Errorf("candidate at %d outside the accumulator [0, 25)", c.Call.GlobalPos)
		}
	}
}

// Zero means default, negative disables — the convention every filter
// threshold follows, resolving idempotently so checkpoint fingerprints
// never move.
func TestConfigNegativeDisables(t *testing.T) {
	zero := Config{}.withDefaults()
	if zero.Alpha != 0.05 || zero.MinDepth != 2 || zero.MinHetMinorFraction != 0.25 {
		t.Fatalf("zero config resolved to %+v", zero)
	}
	if again := zero.withDefaults(); again != zero {
		t.Fatalf("resolving is not idempotent: %+v vs %+v", again, zero)
	}
	neg := Config{Alpha: -1, MinDepth: -2, MinHetMinorFraction: -0.5}
	if got := neg.withDefaults(); got != neg {
		t.Fatalf("negative values must pass through unchanged: %+v vs %+v", got, neg)
	}

	ref, acc := fixture(t)
	// MinDepth < 0 disables the depth filter: every accumulator position
	// is tested, including the thin site at 40 and the uncovered ones.
	_, stDef, err := CallAll(ref, acc, Config{Ploidy: lrt.Monoploid})
	if err != nil {
		t.Fatal(err)
	}
	_, stAll, err := CallAll(ref, acc, Config{Ploidy: lrt.Monoploid, MinDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	if stAll.Tested != ref.Len() {
		t.Errorf("MinDepth=-1: tested %d, want every position (%d)", stAll.Tested, ref.Len())
	}
	if stAll.Tested <= stDef.Tested {
		t.Errorf("MinDepth=-1 tested %d, no more than the default's %d", stAll.Tested, stDef.Tested)
	}

	// Alpha < 0 disables the significance filter: the call set is a
	// superset of the default's, and UseFDR is irrelevant (the FDR pass
	// would reject a negative alpha).
	callsDef, _, err := CallAll(ref, acc, Config{Ploidy: lrt.Monoploid})
	if err != nil {
		t.Fatal(err)
	}
	callsAll, _, err := CallAll(ref, acc, Config{Ploidy: lrt.Monoploid, Alpha: -1})
	if err != nil {
		t.Fatal(err)
	}
	callsAllFDR, _, err := CallAll(ref, acc, Config{Ploidy: lrt.Monoploid, Alpha: -1, UseFDR: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(callsAll, callsAllFDR) {
		t.Error("Alpha=-1 must bypass the FDR pass entirely")
	}
	have := map[int]bool{}
	for _, c := range callsAll {
		have[c.GlobalPos] = true
	}
	for _, c := range callsDef {
		if !have[c.GlobalPos] {
			t.Errorf("default call at %d missing with the significance filter disabled", c.GlobalPos)
		}
	}
}
