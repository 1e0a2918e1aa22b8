package snp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gnumap/internal/genome"
	"gnumap/internal/obs"
)

// The parallel calling sweep. The LRT is a pure per-position function
// of the accumulator state, so [from, to) can be cut into chunks swept
// independently by a worker pool; concatenating the chunk results in
// genome order reproduces the serial CollectRange output bit for bit.
// The significance decision (FinalizeCalls — one fixed cutoff or ONE
// global Benjamini–Hochberg pass) runs after concatenation, exactly as
// in the serial path, so parallelism never changes the tested family.
// Chunks are whole accumulator tiles (genome.TileSize), the unit the
// incremental caller re-sweeps through the same pool.

// minParallelRange is the sweep length below which the dispatch
// overhead of the worker pool cannot pay for itself.
const minParallelRange = 16_384

// span is one chunk of a sweep: global positions [lo, hi).
type span struct{ lo, hi int }

// chunkResult is one chunk's CollectRange output.
type chunkResult struct {
	cands []Candidate
	st    Stats
	err   error
}

// callWorkers resolves Config.CallWorkers: 0 is GOMAXPROCS, anything
// below 1 is one.
func callWorkers(cfg *Config) int {
	if cfg.CallWorkers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(cfg.CallWorkers, 1)
}

// sweepChunks is the calling sweep's worker pool: CollectRange over
// every chunk on up to workers goroutines (the caller's among them),
// results in chunk order. cfg, Metrics included, goes to every chunk's
// CollectRange; reg, when non-nil, receives call.workers, call.chunks
// and one call.sweep.seconds per chunk.
func sweepChunks(ref *genome.Reference, acc genome.Accumulator, offset int, chunks []span, workers int, cfg Config, reg *obs.Registry) []chunkResult {
	if len(chunks) == 0 {
		return nil
	}
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

// CollectRangeParallel is CollectRange with the sweep spread over
// cfg.CallWorkers workers in chunks of whole tiles, about four chunks
// per worker. Results are identical to CollectRange (same candidates in
// the same order, same Stats); errors are reported deterministically
// (the lowest-positioned failing chunk wins).
func CollectRangeParallel(ref *genome.Reference, acc genome.Accumulator, offset, from, to int, cfg Config) ([]Candidate, Stats, error) {
	cfg = cfg.withDefaults()
	var st Stats
	if ref == nil || acc == nil {
		return nil, st, fmt.Errorf("snp: nil reference or accumulator")
	}
	// Clamp exactly as CollectRange does (shared helper), so chunking
	// sees final bounds.
	from, to = clampSweep(ref, acc.Len(), offset, from, to)
	workers := callWorkers(&cfg)
	if workers <= 1 || to-from < minParallelRange {
		return CollectRange(ref, acc, offset, from, to, cfg)
	}
	// Chunk boundaries sit on tile boundaries of the accumulator, whose
	// index 0 is global position offset; only the first and last chunk
	// can be partial.
	tiles := (to - from + genome.TileSize - 1) / genome.TileSize
	step := (tiles + 4*workers - 1) / (4 * workers) * genome.TileSize
	var chunks []span
	for lo := from; lo < to; {
		hi := min(offset+((lo-offset)/step+1)*step, to)
		chunks = append(chunks, span{lo, hi})
		lo = hi
	}
	results := sweepChunks(ref, acc, offset, chunks, workers, cfg, cfg.Metrics)

	// Deterministic assembly: first error by chunk order wins; candidate
	// slices concatenate in genome order.
	total := 0
	for ci := range results {
		if err := results[ci].err; err != nil {
			return nil, st, err
		}
		total += len(results[ci].cands)
	}
	candidates := make([]Candidate, 0, total)
	for ci := range results {
		candidates = append(candidates, results[ci].cands...)
		st.Tested += results[ci].st.Tested
	}
	return candidates, st, nil
}
