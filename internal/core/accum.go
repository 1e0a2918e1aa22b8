package core

import (
	"fmt"
	"strings"
	"time"

	"gnumap/internal/genome"
	"gnumap/internal/obs"
)

// AccumStrategy selects how mapping workers share the accumulator.
type AccumStrategy int

const (
	// AccumAuto (the default) picks sharded when there is real worker
	// parallelism and the per-worker shard copies fit the memory
	// budget, striped otherwise.
	AccumAuto AccumStrategy = iota
	// AccumStriped uses one accumulator guarded by 4096-position lock
	// stripes — the memory-tight mode (one copy of the genome state).
	AccumStriped
	// AccumSharded gives every mapping worker a private lock-free
	// shard, folded into the striped base with a parallel tree merge at
	// combine time — contention-free accumulation at the cost of one
	// genome-state copy per worker.
	AccumSharded
)

// String returns the CLI spelling of the strategy.
func (s AccumStrategy) String() string {
	switch s {
	case AccumAuto:
		return "auto"
	case AccumStriped:
		return "striped"
	case AccumSharded:
		return "sharded"
	default:
		return fmt.Sprintf("AccumStrategy(%d)", int(s))
	}
}

// ParseAccumStrategy parses the CLI spelling ("auto", "striped",
// "sharded").
func ParseAccumStrategy(s string) (AccumStrategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return AccumAuto, nil
	case "striped":
		return AccumStriped, nil
	case "sharded":
		return AccumSharded, nil
	default:
		return AccumAuto, fmt.Errorf("core: unknown accumulation strategy %q (want auto, striped or sharded)", s)
	}
}

// DefaultAccumMemBudget is the auto strategy's ceiling on total
// accumulator memory (base + per-worker shards): 1 GiB.
const DefaultAccumMemBudget = int64(1) << 30

// resolveAccumStrategy applies the auto heuristic: sharding pays only
// when several workers would otherwise contend, and costs one
// genome-state copy per worker on top of the base — so it is selected
// iff workers > 1 and (workers+1) copies fit the budget.
func resolveAccumStrategy(mode genome.Mode, length int, cfg Config) AccumStrategy {
	if cfg.Accum != AccumAuto {
		return cfg.Accum
	}
	if cfg.Workers <= 1 {
		return AccumStriped
	}
	budget := cfg.AccumMemBudget
	if budget <= 0 {
		budget = DefaultAccumMemBudget
	}
	if genome.EstimateBytes(mode, length)*int64(cfg.Workers+1) > budget {
		return AccumStriped
	}
	return AccumSharded
}

// NewAccumulator builds the accumulator the engine's worker pools will
// write through, honoring Config.Accum (with Config.AccumMemBudget
// bounding the auto heuristic). When metrics are configured, the chosen
// mode is published as the accum.mode gauge (0 = striped, 1 = sharded).
func NewAccumulator(mode genome.Mode, length int, cfg Config) (genome.Accumulator, error) {
	cfg = cfg.withDefaults()
	strategy := resolveAccumStrategy(mode, length, cfg)
	var acc genome.Accumulator
	var err error
	switch strategy {
	case AccumStriped:
		acc, err = genome.New(mode, length)
	case AccumSharded:
		acc, err = genome.NewSharded(mode, length)
	default:
		return nil, fmt.Errorf("core: unknown accumulation strategy %d", int(strategy))
	}
	if err != nil {
		return nil, err
	}
	if reg := cfg.Metrics; reg != nil {
		v := 0.0
		if strategy == AccumSharded {
			v = 1
		}
		reg.Gauge("accum.mode").Set(v)
	}
	return acc, nil
}

// CombineAccumulator folds any outstanding worker shards into the
// striped base and returns it; a plain striped accumulator passes
// through untouched. Callers must have quiesced the mapping workers
// (MapReads/MapReadsFrom have returned). The shard count and merge
// wall time are published as accum.shards / accum.merge.seconds (a
// repeated combine, with no shards left, keeps the run's shard count).
func CombineAccumulator(acc genome.Accumulator, reg *obs.Registry) (genome.Accumulator, error) {
	sp, ok := acc.(genome.ShardProvider)
	if !ok {
		return acc, nil
	}
	if n := sp.ShardCount(); reg != nil && n > 0 {
		reg.Gauge("accum.shards").Set(float64(n))
	}
	start := time.Now()
	base, err := sp.Combine()
	if reg != nil {
		reg.Timer("accum.merge.seconds").ObserveDuration(time.Since(start))
	}
	return base, err
}
