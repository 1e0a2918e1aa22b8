package genome

import (
	"bytes"
	"math/rand"
	"testing"
)

// The lock-free twin (unlocked.go) is the striped accumulator minus its
// locks. bench/ times it as the no-lock baseline, so it is held to
// exactly that for as long as it exists: same writes, same merge, same
// state bytes.

// twin builds NewSharded(mode, L).WorkerShard(), the way the probe does.
func twin(t *testing.T, mode Mode, L int) Accumulator {
	t.Helper()
	sh, err := NewSharded(mode, L)
	if err != nil {
		t.Fatal(err)
	}
	return sh.WorkerShard()
}

// TestShardedEqualsStriped: one writer through the twin leaves the
// bytes the same stream leaves in the striped accumulator — the locks
// decide who may write, never what is written.
func TestShardedEqualsStriped(t *testing.T) {
	const L, pureLo, events = 160, 120, 2000
	for _, mode := range allModes() {
		for seed := int64(1); seed <= 3; seed++ {
			stream := randomStream(rand.New(rand.NewSource(seed*104729)), events, L, pureLo)
			striped := feed(t, mode, L, stream)
			tw := twin(t, mode, L)
			for _, ev := range stream {
				tw.AddRange(ev.start, ev.zs, ev.weight)
			}
			if !bytes.Equal(stateOf(t, tw), stateOf(t, striped)) {
				t.Fatalf("%v seed %d: lock-free twin state differs from the striped accumulator's", mode, seed)
			}
			if got, want := tw.MemoryBytes(), striped.MemoryBytes(); got != want {
				t.Fatalf("%v: twin MemoryBytes %d, striped %d", mode, got, want)
			}
		}
	}
}

// TestShardedStateInterop: a twin's serialized state loads into a
// striped accumulator and back into a twin holding stale mass — the
// state codec cannot tell the two apart, and a load replaces.
func TestShardedStateInterop(t *testing.T) {
	for _, mode := range allModes() {
		const L = 64
		tw := twin(t, mode, L)
		for _, ev := range randomStream(rand.New(rand.NewSource(7)), 300, L, 48) {
			tw.AddRange(ev.start, ev.zs, ev.weight)
		}
		blob := stateOf(t, tw)
		striped, err := New(mode, L)
		if err != nil {
			t.Fatal(err)
		}
		if err := striped.LoadStateBytes(blob); err != nil {
			t.Fatalf("%v: load into striped: %v", mode, err)
		}
		stale := twin(t, mode, L)
		stale.AddRange(0, []Vec{{9, 9, 9, 9, 9}}, 1)
		if err := stale.LoadStateBytes(blob); err != nil {
			t.Fatalf("%v: load into twin: %v", mode, err)
		}
		if !bytes.Equal(stateOf(t, striped), blob) || !bytes.Equal(stateOf(t, stale), blob) {
			t.Fatalf("%v: state did not round-trip between twin and striped", mode)
		}
	}
}

// TestShardedMergeSharded: Merge runs unguarded between two twins (the
// nil-lock path of lockRange) and adds like the striped one.
func TestShardedMergeSharded(t *testing.T) {
	a, b := twin(t, Norm, 16), twin(t, Norm, 16)
	a.AddRange(1, []Vec{{1, 0, 0, 0, 0}}, 1)
	b.AddRange(1, []Vec{{0, 0, 1, 0, 0}}, 3)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got, want := view(t, a).Vector(1), (Vec{1, 0, 3, 0, 0}); got != want {
		t.Fatalf("merged vector = %v, want %v", got, want)
	}
}
