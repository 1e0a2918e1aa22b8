package genome

import (
	"bytes"
	"testing"

	"gnumap/internal/dna"
)

// TestSnapshotStateNonDestructive is the checkpoint-correctness core:
// snapshotting a sharded accumulator mid-run must not release the
// worker shards, and writes made to a shard AFTER the snapshot must
// still land in the final combined result.
func TestSnapshotStateNonDestructive(t *testing.T) {
	for _, mode := range []Mode{Norm, CharDisc, CentDisc} {
		t.Run(mode.String(), func(t *testing.T) {
			const length = 500
			s, err := NewSharded(mode, length)
			if err != nil {
				t.Fatal(err)
			}
			shard := s.WorkerShard()
			zs := make([]Vec, 10)
			for i := range zs {
				zs[i] = Vec{0.5, 0.2, 0.2, 0.1, 0}
			}
			shard.AddRange(40, zs, 1.0)
			s.AddRange(200, zs, 2.0) // through the striped base

			snap, err := SnapshotState(s)
			if err != nil {
				t.Fatalf("SnapshotState: %v", err)
			}
			if got := s.ShardCount(); got != 1 {
				t.Fatalf("snapshot released shards: ShardCount = %d, want 1", got)
			}

			// The snapshot equals the state of an equivalent fed-directly
			// accumulator.
			want, err := New(mode, length)
			if err != nil {
				t.Fatal(err)
			}
			want.AddRange(40, zs, 1.0)
			want.AddRange(200, zs, 2.0)
			wantState, err := want.State()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, wantState) {
				t.Errorf("snapshot state diverges from directly-fed state")
			}

			// Writes after the snapshot still reach the combined result
			// through the SAME shard reference a worker would hold.
			shard.AddRange(300, zs, 3.0)
			combined, err := s.Combine()
			if err != nil {
				t.Fatal(err)
			}
			if got := combined.Total(300); got <= 0 {
				t.Errorf("post-snapshot shard write lost: Total(300) = %v", got)
			}
			if got := combined.Total(40); got <= 0 {
				t.Errorf("pre-snapshot shard write lost: Total(40) = %v", got)
			}
		})
	}
}

// TestSnapshotStateStriped covers the plain (non-sharded) path.
func TestSnapshotStateStriped(t *testing.T) {
	a, err := New(Norm, 100)
	if err != nil {
		t.Fatal(err)
	}
	a.AddRange(10, []Vec{{1, 0, 0, 0, 0}}, 1.0)
	snap, err := SnapshotState(a)
	if err != nil {
		t.Fatalf("SnapshotState: %v", err)
	}
	direct, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, direct) {
		t.Errorf("striped snapshot != State()")
	}
}

// TestSnapshotRoundTripsThroughLoad proves snapshot → LoadStateBytes →
// continue produces the same final state as never snapshotting (the
// resume invariant, at the accumulator level).
func TestSnapshotRoundTripsThroughLoad(t *testing.T) {
	const length = 300
	zs := []Vec{{0.7, 0.1, 0.1, 0.1, 0}, {0.2, 0.6, 0.1, 0.1, 0}}

	// Uninterrupted: all writes into one sharded accumulator.
	full, err := NewSharded(Norm, length)
	if err != nil {
		t.Fatal(err)
	}
	w := full.WorkerShard()
	w.AddRange(50, zs, 1.0)
	w.AddRange(120, zs, 1.5)
	fullState, err := SnapshotState(full)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: snapshot after the first write, load into a fresh
	// accumulator, replay only the second write.
	first, err := NewSharded(Norm, length)
	if err != nil {
		t.Fatal(err)
	}
	w1 := first.WorkerShard()
	w1.AddRange(50, zs, 1.0)
	mid, err := SnapshotState(first)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewSharded(Norm, length)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.LoadStateBytes(mid); err != nil {
		t.Fatal(err)
	}
	w2 := resumed.WorkerShard()
	w2.AddRange(120, zs, 1.5)
	resumedState, err := SnapshotState(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedState, fullState) {
		t.Errorf("resumed state diverges from uninterrupted state")
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
