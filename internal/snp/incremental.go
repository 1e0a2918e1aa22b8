package snp

import (
	"fmt"

	"gnumap/internal/genome"
	"gnumap/internal/obs"
)

// IncrementalCaller overlaps SNP calling with mapping. It is the
// one-shot sweep plus a per-tile cache: the streaming pipeline quiesces
// every writer at barriers, and at each one the caller reads the
// accumulator's write-set (genome.Writes) and hands the tiles whose
// write counter moved since their last sweep to the parallel sweep's
// worker pool, reading the parked accumulator in place (CollectRange
// freezes a view, it copies nothing). Every other tile reuses its
// cached candidates, which stay bit-valid because nothing changed its
// bytes — whether mass arrived through the engine's AddRange, a
// read-split round's Merge or a checkpoint's LoadStateBytes, the
// counters move alike. Provisional call sets are then one FinalizeCalls
// pass over the caches concatenated in genome order, and the final set
// (after the last batch retires) re-sweeps only the tiles the tail of
// the read stream wrote.
//
// The caller assumes a full-genome accumulator (offset 0); the
// distributed genome-split path keeps its own collect/gather flow.
// All methods must run with accumulator writers quiesced (between
// mapping runs, or inside the streaming pipeline's quiesce window) —
// the caller itself is not safe for concurrent use.
type IncrementalCaller struct {
	ref *genome.Reference
	acc genome.Accumulator
	cfg Config // resolved; Metrics stripped (tiles are re-swept per barrier)
	// reg receives the pool's call.workers, call.chunks and
	// call.sweep.seconds.
	reg     *obs.Registry
	workers int
	seen    []uint64 // per-tile write count at the tile's last sweep
	cur     []uint64
	cands   [][]Candidate
	tested  []int
	sweeps  int64
	reswept int64
	reused  int64
}

// unswept is the seen count of a tile no sweep has covered: write
// counters start at zero and never reach it.
const unswept = ^uint64(0)

// NewIncrementalCaller builds an incremental caller over acc, which
// must keep a write-set (every genome.New layout does). Every tile
// starts unswept, so state acc already holds is swept like freshly
// mapped reads.
func NewIncrementalCaller(ref *genome.Reference, acc genome.Accumulator, cfg Config) (*IncrementalCaller, error) {
	if ref == nil || acc == nil {
		return nil, fmt.Errorf("snp: nil reference or accumulator")
	}
	seen, err := genome.Writes(acc, nil)
	if err != nil {
		return nil, err
	}
	for i := range seen {
		seen[i] = unswept
	}
	cfg = cfg.withDefaults()
	// Tiles are re-swept barrier after barrier; the one-shot sweep
	// counters (call.tested etc.) would double-count, so the incremental
	// path reports through its own gauges (see Sweeps/RegionsSwept) and
	// the pool's.
	reg := cfg.Metrics
	cfg.Metrics = nil
	return &IncrementalCaller{
		ref: ref, acc: acc, cfg: cfg, reg: reg, workers: callWorkers(&cfg),
		seen: seen, cands: make([][]Candidate, len(seen)), tested: make([]int, len(seen)),
	}, nil
}

// Sweep refreshes the candidate caches of every tile written since its
// last Sweep, on cfg.CallWorkers workers. Writers must be quiesced.
func (ic *IncrementalCaller) Sweep() error {
	var err error
	if ic.cur, err = genome.Writes(ic.acc, ic.cur); err != nil {
		return err
	}
	ic.sweeps++
	var dirty []int
	var chunks []span
	for i, w := range ic.cur {
		if w == ic.seen[i] {
			ic.reused++
			continue
		}
		dirty = append(dirty, i)
		chunks = append(chunks, span{i * genome.TileSize, min((i+1)*genome.TileSize, ic.acc.Len())})
	}
	for j, r := range sweepChunks(ic.ref, ic.acc, 0, chunks, ic.workers, ic.cfg, ic.reg) {
		if r.err != nil {
			return r.err
		}
		i := dirty[j]
		ic.cands[i], ic.tested[i], ic.seen[i] = r.cands, r.st.Tested, ic.cur[i]
		ic.reswept++
	}
	return nil
}

// Provisional finalizes the current caches into a call set: one
// FinalizeCalls pass (the single global significance decision) over the
// tile caches concatenated in genome order, exactly like the one-shot
// sweep. Stats.Tested covers every tile's last sweep.
func (ic *IncrementalCaller) Provisional() ([]Call, Stats, error) {
	total, tested := 0, 0
	for i := range ic.cands {
		total += len(ic.cands[i])
		tested += ic.tested[i]
	}
	all := make([]Candidate, 0, total)
	for _, cs := range ic.cands {
		all = append(all, cs...)
	}
	calls, st, err := FinalizeCalls(all, ic.cfg)
	if err != nil {
		return nil, st, err
	}
	st.Tested = tested
	return calls, st, nil
}

// Finalize runs a last Sweep (writers must have quiesced for good) and
// returns the final call set, bit-identical to CallAll over the same
// accumulator.
func (ic *IncrementalCaller) Finalize() ([]Call, Stats, error) {
	if err := ic.Sweep(); err != nil {
		return nil, Stats{}, err
	}
	return ic.Provisional()
}

// Sweeps returns how many Sweep passes have run.
func (ic *IncrementalCaller) Sweeps() int64 { return ic.sweeps }

// RegionsSwept returns the cumulative count of tile sweeps executed.
func (ic *IncrementalCaller) RegionsSwept() int64 { return ic.reswept }

// RegionsReused returns the cumulative count of cache hits — tiles a
// Sweep skipped because their write counter had not moved since their
// last sweep.
func (ic *IncrementalCaller) RegionsReused() int64 { return ic.reused }
