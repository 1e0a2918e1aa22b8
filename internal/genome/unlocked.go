package genome

// Sharded is the lock-free twin of one accumulator. Its only caller is
// bench/probes.go, which times genome.NewSharded(genome.Norm,
// n).WorkerShard() as the no-lock baseline of
// genome.add_shard_ns_per_range — what the stripe locks cost per
// AddRange. The program itself never builds one; the type leaves with
// that probe (ROADMAP item 5(c)).
type Sharded struct{ acc Accumulator }

// NewSharded builds the twin of New(mode, length).
func NewSharded(mode Mode, length int) (*Sharded, error) {
	acc, err := newUnlocked(mode, length)
	return &Sharded{acc}, err
}

// WorkerShard returns the twin; it must only ever have one writer.
func (s *Sharded) WorkerShard() Accumulator { return s.acc }

// newUnlocked is New with nil stripe locks: lockRange on a nil slice
// clamps last to -1 < first, so every path runs unchanged, unguarded.
func newUnlocked(mode Mode, length int) (Accumulator, error) {
	acc, err := New(mode, length)
	if err != nil {
		return nil, err
	}
	acc.shared().locks = nil
	return acc, nil
}
