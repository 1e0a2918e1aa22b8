package genome

import (
	"fmt"
	"sync"
)

// ShardProvider is implemented by accumulators that can hand each
// mapping worker a private, lock-free shard. Workers write to their
// shard without any synchronization; the shards are folded into the
// striped base with a parallel tree merge at Combine time. This trades
// memory (one full-genome shard per worker) for the elimination of all
// stripe-lock contention on the mapping hot path.
type ShardProvider interface {
	Accumulator
	// WorkerShard returns a fresh private shard for one worker
	// goroutine. The shard must only ever be written by that worker; it
	// is unlocked internally.
	WorkerShard() Accumulator
	// Combine folds every outstanding shard into the base accumulator
	// (parallel tree merge, reusing each mode's Merge path) and returns
	// the base. After Combine the shards are released; the returned
	// accumulator is the ordinary striped one and can be swept without
	// per-call locking overhead.
	Combine() (Accumulator, error)
	// ShardCount reports the number of outstanding worker shards.
	ShardCount() int
}

// Sharded wraps a striped base accumulator with per-worker lock-free
// shards. It implements Accumulator (reads lazily combine, so it is
// always correct even if a caller forgets Combine) and Stateful (state
// is the combined state). Direct AddRange calls go to the striped base,
// so non-worker writers (e.g. cluster state loads) remain safe.
type Sharded struct {
	mode   Mode
	length int

	mu     sync.Mutex
	shards []Accumulator
	base   Accumulator
	// clean is true when every shard ever handed out has been folded
	// into base (i.e. base alone is the full picture).
	clean bool
}

// NewSharded constructs a sharded accumulator of the given mode and
// length. The base (and therefore the combined result) is the ordinary
// striped accumulator returned by New.
func NewSharded(mode Mode, length int) (*Sharded, error) {
	base, err := New(mode, length)
	if err != nil {
		return nil, err
	}
	return &Sharded{mode: mode, length: length, base: base, clean: true}, nil
}

// newUnlocked builds an accumulator whose stripe locks are nil.
// lockRange/unlockRange on a nil lock slice clamp last to -1 < first
// and degenerate to no-ops, so every AddRange/Merge/State path works
// unchanged — just without atomicity, which a single-owner shard does
// not need.
func newUnlocked(mode Mode, length int) (Accumulator, error) {
	acc, err := New(mode, length)
	if err != nil {
		return nil, err
	}
	switch a := acc.(type) {
	case *normAcc:
		a.locks = nil
	case *charDiscAcc:
		a.locks = nil
	case *centDiscAcc:
		a.locks = nil
	default:
		return nil, fmt.Errorf("genome: mode %v has no unlocked shard form", mode)
	}
	return acc, nil
}

func (s *Sharded) Len() int   { return s.length }
func (s *Sharded) Mode() Mode { return s.mode }

// WorkerShard implements ShardProvider.
func (s *Sharded) WorkerShard() Accumulator {
	shard, err := newUnlocked(s.mode, s.length)
	if err != nil {
		// New succeeded for the base with identical arguments, so this
		// cannot fail; keep the worker functional regardless.
		return s.base
	}
	s.mu.Lock()
	s.shards = append(s.shards, shard)
	s.clean = false
	s.mu.Unlock()
	return shard
}

// Combine implements ShardProvider. Concurrent writers must be
// quiesced (the engine joins its workers before snapshotting).
func (s *Sharded) Combine() (Accumulator, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.combineLocked(); err != nil {
		return nil, err
	}
	return s.base, nil
}

func (s *Sharded) combineLocked() error {
	if s.clean {
		return nil
	}
	shards := s.shards
	s.shards = nil
	if len(shards) > 0 {
		if err := MergeTree(shards); err != nil {
			return err
		}
		if err := s.base.Merge(shards[0]); err != nil {
			return err
		}
	}
	s.clean = true
	return nil
}

// ShardCount implements ShardProvider.
func (s *Sharded) ShardCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shards)
}

// AddRange adds through the striped base: callers that did not take a
// WorkerShard get the same locking semantics as a plain accumulator.
func (s *Sharded) AddRange(start int, zs []Vec, weight float64) {
	s.base.AddRange(start, zs, weight)
}

// Vector lazily combines, then reads the base. The per-call mutex makes
// this correct even mid-pipeline, but sweep-heavy callers should call
// Combine once and read the returned base directly.
func (s *Sharded) Vector(pos int) Vec {
	s.mu.Lock()
	err := s.combineLocked()
	s.mu.Unlock()
	if err != nil {
		return Vec{}
	}
	return s.base.Vector(pos)
}

// Total lazily combines, then reads the base.
func (s *Sharded) Total(pos int) float64 {
	s.mu.Lock()
	err := s.combineLocked()
	s.mu.Unlock()
	if err != nil {
		return 0
	}
	return s.base.Total(pos)
}

// MemoryBytes reports the base plus every outstanding shard — the
// memory cost of sharding is visible, not hidden.
func (s *Sharded) MemoryBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := s.base.MemoryBytes()
	for _, sh := range s.shards {
		total += sh.MemoryBytes()
	}
	return total
}

// Merge folds another accumulator into this one's base; a *Sharded
// other is combined first and contributes its base. The receiver's live
// worker shards stay in place (reads and State fold them in later):
// the cluster dealer merges peers' round payloads mid-run, and a
// destructive fold there would orphan the shard references mapping
// workers keep across batches, as SnapshotState documents.
func (s *Sharded) Merge(other Accumulator) error {
	src := other
	if o, ok := other.(*Sharded); ok {
		b, err := o.Combine()
		if err != nil {
			return err
		}
		src = b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base.Merge(src)
}

// State implements Stateful: the serialized form is the combined base
// state, so striped and sharded accumulators interoperate over the
// cluster transport.
func (s *Sharded) State() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.combineLocked(); err != nil {
		return nil, err
	}
	return s.base.State()
}

// LoadStateBytes implements Stateful. Outstanding shards are dropped:
// the loaded state fully replaces the accumulator, and the contract
// (writers quiesced) means no worker still holds one.
func (s *Sharded) LoadStateBytes(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shards = nil
	s.clean = true
	return s.base.LoadStateBytes(data)
}

// MergeTree folds accs[1:]... into accs[0] with ceil(log2(n)) rounds of
// concurrent pairwise merges across worker shards. The final result is
// left in accs[0]; the other entries are consumed.
func MergeTree(accs []Accumulator) error {
	var firstErr error
	var errMu sync.Mutex
	for stride := 1; stride < len(accs); stride *= 2 {
		var wg sync.WaitGroup
		for i := 0; i+stride < len(accs); i += 2 * stride {
			dst, src := accs[i], accs[i+stride]
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := dst.Merge(src); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
	}
	return nil
}

// EstimateBytes predicts the per-position heap footprint of one
// accumulator of the given mode and length, without allocating it.
// Used by the auto accumulation-strategy heuristic (workers+1 copies
// must fit the memory budget before sharding is worth it).
func EstimateBytes(mode Mode, length int) int64 {
	l := int64(length)
	switch mode {
	case Norm:
		return 20 * l // five float32 per position
	case CharDisc:
		return 9 * l // float32 total + five byte fractions
	case CentDisc:
		return 5 * l // float32 total + one codebook byte
	default:
		return 20 * l
	}
}
