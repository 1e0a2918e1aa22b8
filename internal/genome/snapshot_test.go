package genome

import (
	"bytes"
	"testing"

	"gnumap/internal/dna"
)

// stateOf serializes acc or fails the test.
func stateOf(t *testing.T, acc Accumulator) []byte {
	t.Helper()
	b, err := acc.State()
	if err != nil {
		t.Fatalf("State: %v", err)
	}
	return b
}

// TestSnapshotStateNonDestructive is the checkpoint-correctness core:
// State() at a barrier is a snapshot, not a hand-over — it equals the
// state of an accumulator fed the same writes, and the accumulator the
// mapping workers hold keeps taking writes afterwards, which the next
// snapshot sees on top of everything before.
func TestSnapshotStateNonDestructive(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			const length = 500
			acc, err := New(mode, length)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(mode, length)
			if err != nil {
				t.Fatal(err)
			}
			zs := make([]Vec, 10)
			for i := range zs {
				zs[i] = Vec{0.5, 0.2, 0.2, 0.1, 0}
			}
			for _, a := range []Accumulator{acc, want} {
				a.AddRange(40, zs, 1.0)
				a.AddRange(200, zs, 2.0)
			}
			if !bytes.Equal(stateOf(t, acc), stateOf(t, want)) {
				t.Errorf("snapshot diverges from directly-fed state")
			}
			// Writes after the snapshot land on top of those before it.
			acc.AddRange(300, zs, 3.0)
			want.AddRange(300, zs, 3.0)
			if fz := view(t, acc); fz.Total(300) <= 0 || fz.Total(40) <= 0 {
				t.Errorf("write lost around a snapshot: Total(40) = %v, Total(300) = %v", fz.Total(40), fz.Total(300))
			}
			if !bytes.Equal(stateOf(t, acc), stateOf(t, want)) {
				t.Errorf("second snapshot diverges from directly-fed state")
			}
		})
	}
}

// TestSnapshotStateStriped: the snapshot is private to its caller (the
// checkpoint sink writes it out while mapping has resumed) — later
// writes to the accumulator do not reach bytes already handed out.
func TestSnapshotStateStriped(t *testing.T) {
	a, err := New(Norm, 100)
	if err != nil {
		t.Fatal(err)
	}
	a.AddRange(10, []Vec{{1, 0, 0, 0, 0}}, 1.0)
	snap := stateOf(t, a)
	kept := bytes.Clone(snap)
	a.AddRange(10, []Vec{{0, 1, 0, 0, 0}}, 1.0)
	if !bytes.Equal(snap, kept) {
		t.Errorf("a write after State() changed the snapshot handed out before it")
	}
	if bytes.Equal(stateOf(t, a), kept) {
		t.Errorf("the write after the snapshot is missing from the next one")
	}
}

// TestSnapshotRoundTripsThroughLoad proves snapshot → LoadStateBytes →
// continue produces the same final state as never snapshotting (the
// resume invariant, at the accumulator level).
func TestSnapshotRoundTripsThroughLoad(t *testing.T) {
	const length = 300
	zs := []Vec{{0.7, 0.1, 0.1, 0.1, 0}, {0.2, 0.6, 0.1, 0.1, 0}}
	for _, mode := range allModes() {
		// Uninterrupted: all writes into one accumulator.
		full, err := New(mode, length)
		if err != nil {
			t.Fatal(err)
		}
		full.AddRange(50, zs, 1.0)
		full.AddRange(120, zs, 1.5)

		// Interrupted: snapshot after the first write, load into a fresh
		// accumulator, replay only the second write.
		first, err := New(mode, length)
		if err != nil {
			t.Fatal(err)
		}
		first.AddRange(50, zs, 1.0)
		resumed, err := New(mode, length)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.LoadStateBytes(stateOf(t, first)); err != nil {
			t.Fatal(err)
		}
		resumed.AddRange(120, zs, 1.5)
		if !bytes.Equal(stateOf(t, resumed), stateOf(t, full)) {
			t.Errorf("%v: resumed state diverges from uninterrupted state", mode)
		}
	}
}

func TestReferenceDigest(t *testing.T) {
	refA, err := NewSingleContig("a", dna.MustParseSeq("ACGTACGTAC"))
	if err != nil {
		t.Fatal(err)
	}
	refA2, err := NewSingleContig("a", dna.MustParseSeq("ACGTACGTAC"))
	if err != nil {
		t.Fatal(err)
	}
	refB, err := NewSingleContig("a", dna.MustParseSeq("ACGTACGTAG"))
	if err != nil {
		t.Fatal(err)
	}
	if refA.Digest() != refA2.Digest() {
		t.Errorf("identical references digest differently")
	}
	if refA.Digest() == refB.Digest() {
		t.Errorf("different references share a digest")
	}
	if refA.Digest() != refA.Digest() {
		t.Errorf("digest not stable across calls")
	}
}
