package snp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gnumap/internal/genome"
)

// IncrementalCaller is the calling sweep: the one caller behind every LRT
// pass, whether it calls once after mapping, at every quiesce barrier
// of a streaming run, or over one genome-split rank's slice. It walks
// the accumulator's tiles (genome.TileSize positions, the unit of its
// write-set) and keeps each tile's candidates. A sweep reads the
// write-set (genome.Writes) and hands the tiles whose write counter
// moved since their last sweep to a worker pool, reading the parked
// accumulator in place (CollectRange freezes a view, it copies
// nothing). Every other tile reuses its cached candidates, which stay
// bit-valid because nothing changed its bytes — whether mass arrived
// through the engine's AddRange, a read-split round's Merge or a
// checkpoint's LoadStateBytes, the counters move alike.
//
// A tile whose write counter is still zero holds genome.New's zeros,
// where no position passes a positive MinDepth, so the caller starts
// with such tiles swept, empty and untested: a sweep covers what the
// reads wrote, not the genome. A one-shot call is the first Finalize,
// sweeping every written tile; a streaming run's provisional sets are
// FinalizeCalls passes over the caches concatenated in genome order,
// and its final set re-sweeps only the tiles the tail of the read
// stream wrote. The LRT
// is a pure per-position function and the significance decision (one
// fixed cutoff or ONE global Benjamini–Hochberg pass) runs after
// concatenation, so the tile walk is bit-identical to a serial
// CollectRange over the whole range at any worker count.
//
// All methods must run with accumulator writers quiesced (between
// mapping runs, or inside the streaming pipeline's quiesce window) —
// the caller itself is not safe for concurrent use.
type IncrementalCaller struct {
	ref *genome.Reference
	acc genome.Accumulator
	// offset is the global position of accumulator index 0 (non-zero on
	// a genome-split rank's slice).
	offset  int
	cfg     Config // resolved
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

// NewIncrementalCaller builds a caller over acc, whose index 0 is global
// position offset, as CollectRange takes it. Every written tile starts
// unswept, so state acc already holds is swept like freshly mapped
// reads. A tile whose write counter is zero still holds genome.New's
// zeros (genome.Writes), where a sweep under a positive MinDepth tests
// nothing and finds nothing, so it starts swept at count zero with no
// candidates; with MinDepth <= 0 every position is tested and every
// tile starts unswept.
//
// cfg.Metrics, when set, receives every tile sweep's call.tested,
// call.prescreened and call.collect.seconds, the pool's call.workers,
// call.chunks and call.sweep.seconds, and — from Finalize only —
// call.finalize.seconds, call.significant and call.snps.
func NewIncrementalCaller(ref *genome.Reference, acc genome.Accumulator, offset int, cfg Config) (*IncrementalCaller, error) {
	if ref == nil || acc == nil {
		return nil, fmt.Errorf("snp: nil reference or accumulator")
	}
	cfg = cfg.withDefaults()
	seen := genome.Writes(acc, nil)
	for i, w := range seen {
		if w != 0 || !(cfg.MinDepth > 0) {
			seen[i] = unswept
		}
	}
	return &IncrementalCaller{
		ref: ref, acc: acc, offset: offset, cfg: cfg, workers: callWorkers(&cfg),
		seen: seen, cands: make([][]Candidate, len(seen)), tested: make([]int, len(seen)),
	}, nil
}

// callWorkers resolves Config.CallWorkers: 0 is GOMAXPROCS, anything
// below 1 is one.
func callWorkers(cfg *Config) int {
	if cfg.CallWorkers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(cfg.CallWorkers, 1)
}

// Sweep refreshes the candidate caches of every tile written since its
// last Sweep, on cfg.CallWorkers workers. Writers must be quiesced.
func (ic *IncrementalCaller) Sweep() error {
	ic.cur = genome.Writes(ic.acc, ic.cur)
	ic.sweeps++
	var dirty []int
	var chunks []span
	for i, w := range ic.cur {
		if w == ic.seen[i] {
			ic.reused++
			continue
		}
		dirty = append(dirty, i)
		lo := ic.offset + i*genome.TileSize
		chunks = append(chunks, span{lo, min(lo+genome.TileSize, ic.offset+ic.acc.Len())})
	}
	// The first failing tile in genome order wins, so errors are
	// deterministic.
	for j, r := range sweepChunks(ic.ref, ic.acc, ic.offset, chunks, ic.workers, ic.cfg) {
		if r.err != nil {
			return r.err
		}
		i := dirty[j]
		ic.cands[i], ic.tested[i], ic.seen[i] = r.cands, r.st.Tested, ic.cur[i]
		ic.reswept++
	}
	return nil
}

// cached concatenates the tile caches in genome order, with the
// positions their last sweeps tested.
func (ic *IncrementalCaller) cached() ([]Candidate, Stats) {
	total, tested := 0, 0
	for i := range ic.cands {
		total += len(ic.cands[i])
		tested += ic.tested[i]
	}
	all := make([]Candidate, 0, total)
	for _, cs := range ic.cands {
		all = append(all, cs...)
	}
	return all, Stats{Tested: tested}
}

// Candidates runs a Sweep and returns every tile's candidates in genome
// order, with Stats.Tested covering every tile: the input of one
// FinalizeCalls, here or — for a genome-split rank — at the rank that
// gathers every slice's.
func (ic *IncrementalCaller) Candidates() ([]Candidate, Stats, error) {
	if err := ic.Sweep(); err != nil {
		return nil, Stats{}, err
	}
	all, st := ic.cached()
	return all, st, nil
}

// Provisional finalizes the current caches into a call set without
// sweeping: one FinalizeCalls pass over the tile caches concatenated in
// genome order, unmetered (only a final set counts as the run's calls).
// Stats.Tested covers every tile's last sweep.
func (ic *IncrementalCaller) Provisional() ([]Call, Stats, error) {
	all, st := ic.cached()
	cfg := ic.cfg
	cfg.Metrics = nil
	return finalize(all, st, cfg)
}

// Finalize runs a last Sweep (writers must have quiesced for good) and
// returns the final call set, bit-identical to a serial CollectRange
// over the whole accumulator followed by FinalizeCalls.
func (ic *IncrementalCaller) Finalize() ([]Call, Stats, error) {
	all, st, err := ic.Candidates()
	if err != nil {
		return nil, st, err
	}
	return finalize(all, st, ic.cfg)
}

// finalize is FinalizeCalls keeping the sweep's Tested, which counts
// positions the LRT ran on (inter-contig spacers that produced no
// candidate included).
func finalize(all []Candidate, st Stats, cfg Config) ([]Call, Stats, error) {
	calls, fst, err := FinalizeCalls(all, cfg)
	if err != nil {
		return nil, st, err
	}
	fst.Tested = st.Tested
	return calls, fst, nil
}

// Sweeps returns how many Sweep passes have run.
func (ic *IncrementalCaller) Sweeps() int64 { return ic.sweeps }

// RegionsSwept returns the cumulative count of tile sweeps executed.
func (ic *IncrementalCaller) RegionsSwept() int64 { return ic.reswept }

// RegionsReused returns the cumulative count of cache hits — tiles a
// Sweep skipped because their write counter had not moved since their
// last sweep.
func (ic *IncrementalCaller) RegionsReused() int64 { return ic.reused }

// span is one tile of a sweep: global positions [lo, hi).
type span struct{ lo, hi int }

// chunkResult is one tile's CollectRange output.
type chunkResult struct {
	cands []Candidate
	st    Stats
	err   error
}

// sweepChunks is the calling sweep's worker pool: CollectRange over
// every chunk on up to workers goroutines (the caller's among them),
// results in chunk order. cfg, Metrics included, goes to every chunk's
// CollectRange; cfg.Metrics also receives call.workers, call.chunks and
// one call.sweep.seconds per chunk.
func sweepChunks(ref *genome.Reference, acc genome.Accumulator, offset int, chunks []span, workers int, cfg Config) []chunkResult {
	if len(chunks) == 0 {
		return nil
	}
	reg := cfg.Metrics
	workers = min(workers, len(chunks))
	reg.Gauge("call.workers").Set(float64(workers))
	reg.Counter("call.chunks").Add(int64(len(chunks)))
	results := make([]chunkResult, len(chunks))
	var next atomic.Int64
	work := func() {
		for {
			ci := int(next.Add(1)) - 1
			if ci >= len(chunks) {
				return
			}
			stop := reg.StartTimer("call.sweep.seconds")
			r := &results[ci]
			r.cands, r.st, r.err = CollectRange(ref, acc, offset, chunks[ci].lo, chunks[ci].hi, cfg)
			stop()
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return results
}
