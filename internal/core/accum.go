package core

import "gnumap/internal/genome"

// NewAccumulator is genome.New, the engine's one constructor, under the
// signature bench/probes.go times as genome.alloc_s (core.NewAccumulator(
// genome.Norm, n, cfg)). The program itself calls genome.New; this
// wrapper leaves with that probe (ROADMAP item 5(c)).
func NewAccumulator(mode genome.Mode, length int, _ Config) (genome.Accumulator, error) {
	return genome.New(mode, length)
}
