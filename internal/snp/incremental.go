package snp

import (
	"fmt"

	"gnumap/internal/genome"
)

// IncrementalCaller overlaps SNP calling with mapping. The streaming
// pipeline already quiesces every writer at checkpoint barriers; at
// each barrier the caller consults a RegionTracker for which fixed-size
// genome regions received writes since the previous barrier and
// re-sweeps only those regions, reading the parked accumulator in place
// (CollectRange freezes a view, it copies nothing) — unchanged regions
// reuse their cached candidates, which stay bit-valid because nothing
// wrote there. Provisional call sets are then one FinalizeCalls pass
// over the concatenated caches, and the final set (after the last batch
// retires) reuses everything already swept — time-to-first-call moves
// from "after mapping" to "during mapping", and the final sweep touches
// only the regions the tail of the read stream wrote.
//
// The caller assumes a full-genome accumulator (offset 0); the
// distributed genome-split path keeps its own collect/gather flow.
// All methods must run with accumulator writers quiesced (between
// mapping runs, or inside the streaming pipeline's quiesce window) —
// the caller itself is not safe for concurrent use.
type IncrementalCaller struct {
	ref     *genome.Reference
	acc     genome.Accumulator
	cfg     Config // resolved; Metrics stripped (sweeps re-run per barrier)
	tracker *genome.RegionTracker
	prev    []int64 // per-region tracker counts at last sweep (-1 = never)
	cur     []int64
	cands   [][]Candidate
	tested  []int
	sweeps  int64
	reswept int64
	reused  int64
}

// DefaultRegionSize is the default incremental sweep granularity: large
// enough that Touch adds at most a couple of atomic increments per
// alignment, small enough that a barrier's re-sweep tracks the mapped
// working set rather than the whole genome.
const DefaultRegionSize = 16_384

// NewIncrementalCaller builds an incremental caller over acc. Register
// the Tracker() with the mapping engine before mapping starts;
// regionSize <= 0 selects DefaultRegionSize.
func NewIncrementalCaller(ref *genome.Reference, acc genome.Accumulator, regionSize int, cfg Config) (*IncrementalCaller, error) {
	if ref == nil || acc == nil {
		return nil, fmt.Errorf("snp: nil reference or accumulator")
	}
	if regionSize <= 0 {
		regionSize = DefaultRegionSize
	}
	tracker, err := genome.NewRegionTracker(acc.Len(), regionSize)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	// Per-region sweeps repeat across barriers; the one-shot sweep
	// counters (call.tested etc.) would double-count, so the incremental
	// path reports through its own gauges (see Sweeps/RegionsSwept).
	cfg.Metrics = nil
	n := tracker.Regions()
	prev := make([]int64, n)
	for i := range prev {
		prev[i] = -1
	}
	return &IncrementalCaller{
		ref: ref, acc: acc, cfg: cfg, tracker: tracker,
		prev: prev, cands: make([][]Candidate, n), tested: make([]int, n),
	}, nil
}

// Tracker returns the per-region write tracker to register with the
// mapping engine (core.Engine.SetRegionTracker).
func (ic *IncrementalCaller) Tracker() *genome.RegionTracker { return ic.tracker }

// Sweep refreshes the candidate caches of every region written since
// the last Sweep. Writers must be quiesced.
func (ic *IncrementalCaller) Sweep() error {
	ic.cur = ic.tracker.Snapshot(ic.cur)
	ic.sweeps++
	for i := range ic.cur {
		if ic.cur[i] == ic.prev[i] {
			ic.reused++
			continue
		}
		from, to := ic.tracker.Bounds(i)
		cands, st, err := CollectRange(ic.ref, ic.acc, 0, from, to, ic.cfg)
		if err != nil {
			return err
		}
		ic.cands[i] = cands
		ic.tested[i] = st.Tested
		ic.prev[i] = ic.cur[i]
		ic.reswept++
	}
	return nil
}

// Provisional finalizes the current caches into a call set: one
// FinalizeCalls pass (the single global significance decision) over the
// region caches concatenated in genome order, exactly like the one-shot
// sweep. Stats.Tested covers every region's last sweep.
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

// RegionsSwept returns the cumulative count of region sweeps executed.
func (ic *IncrementalCaller) RegionsSwept() int64 { return ic.reswept }

// RegionsReused returns the cumulative count of cache hits — regions a
// Sweep skipped because no write touched them since their last sweep.
func (ic *IncrementalCaller) RegionsReused() int64 { return ic.reused }
