package snp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gnumap/internal/genome"
)

// The parallel calling sweep. The LRT is a pure per-position function
// of the accumulator state, so [from, to) can be cut into chunks swept
// independently by a worker pool; concatenating the chunk results in
// genome order reproduces the serial CollectRange output bit for bit.
// The significance decision (FinalizeCalls — one fixed cutoff or ONE
// global Benjamini–Hochberg pass) runs after concatenation, exactly as
// in the serial path, so parallelism never changes the tested family.

// minParallelRange is the sweep length below which the dispatch
// overhead of the worker pool cannot pay for itself.
const minParallelRange = 16_384

// minCallChunk floors the auto chunk size.
const minCallChunk = 2048

// CollectRangeParallel is CollectRange with the sweep spread over
// cfg.CallWorkers workers in cfg.CallChunk-position chunks. Results are
// identical to CollectRange (same candidates in the same order, same
// Stats); errors are reported deterministically (the lowest-positioned
// failing chunk wins).
func CollectRangeParallel(ref *genome.Reference, acc genome.Accumulator, offset, from, to int, cfg Config) ([]Candidate, Stats, error) {
	cfg = cfg.withDefaults()
	var st Stats
	if ref == nil || acc == nil {
		return nil, st, fmt.Errorf("snp: nil reference or accumulator")
	}
	// Clamp exactly as CollectRange does (shared helper), so chunking
	// sees final bounds.
	from, to = clampSweep(ref, acc.Len(), offset, from, to)
	workers := cfg.CallWorkers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := to - from
	if workers <= 1 || n < minParallelRange {
		return CollectRange(ref, acc, offset, from, to, cfg)
	}
	chunk := cfg.CallChunk
	if chunk <= 0 {
		// ~4 chunks per worker balances load without oversubscribing
		// the dispatch path.
		chunk = (n + 4*workers - 1) / (4 * workers)
		if chunk < minCallChunk {
			chunk = minCallChunk
		}
	}
	nChunks := (n + chunk - 1) / chunk
	if nChunks < workers {
		workers = nChunks
	}
	if reg := cfg.Metrics; reg != nil {
		reg.Gauge("call.workers").Set(float64(workers))
		reg.Counter("call.chunks").Add(int64(nChunks))
	}

	type chunkResult struct {
		cands []Candidate
		st    Stats
		err   error
	}
	results := make([]chunkResult, nChunks)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := int(next.Add(1))
				if ci >= nChunks {
					return
				}
				lo := from + ci*chunk
				hi := lo + chunk
				if hi > to {
					hi = to
				}
				stop := cfg.Metrics.StartTimer("call.sweep.seconds")
				cands, cst, err := CollectRange(ref, acc, offset, lo, hi, cfg)
				stop()
				results[ci] = chunkResult{cands: cands, st: cst, err: err}
			}
		}()
	}
	wg.Wait()

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
