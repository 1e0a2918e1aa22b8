package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"gnumap/internal/ckpt"
	"gnumap/internal/core"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/lrt"
	"gnumap/internal/obs"
	"gnumap/internal/snp"
)

// StreamBenchRow is one mapping-pipeline measurement, emitted by
// snpbench as machine-readable BENCH_stream.json so successive PRs can
// track the pipeline and what its barrier subscribers cost.
type StreamBenchRow struct {
	// Path names the pipeline variant: "stream" (Open + MapReadsFrom)
	// plus "+ckpt" and/or "+inc" for the subscribers on its barrier.
	Path string `json:"path"`
	// Reads is the number of reads mapped; WallNs the end-to-end wall
	// time including the FASTQ I/O; ReadsPerSec the throughput.
	Reads       int     `json:"reads"`
	WallNs      int64   `json:"wall_ns"`
	ReadsPerSec float64 `json:"reads_per_sec"`
	// PeakHeapBytes is the sampled live-heap high-water mark over the
	// run (runtime.ReadMemStats HeapAlloc) — the portable stand-in for
	// peak RSS.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// PeakResidentReads is the pipeline's stream.peak.resident.reads
	// gauge.
	PeakResidentReads int64 `json:"peak_resident_reads"`
	// The streaming configuration the row ran under.
	Workers int `json:"workers"`
	Batch   int `json:"batch"`
	Queue   int `json:"queue"`
	// Checkpointing cost, set only on the "+ckpt" rows: the
	// read-count interval, durable writes performed, and bytes
	// committed.
	CkptEveryReads int64 `json:"ckpt_every_reads,omitempty"`
	CkptWrites     int64 `json:"ckpt_writes,omitempty"`
	CkptBytes      int64 `json:"ckpt_bytes,omitempty"`
	// CkptStallFrac is the checkpoint overhead: the fraction of the
	// row's wall time spent with the pipeline fully stalled for
	// checkpointing (quiesced snapshot + sink handoff, measured by the
	// stream.ckpt.stall.seconds timer). The durable write itself
	// overlaps resumed mapping, so this direct measurement — not
	// wall-clock differencing against the "stream" row, whose run-to-run
	// noise exceeds the effect — is the feature's critical-path cost.
	CkptStallFrac float64 `json:"ckpt_stall_frac,omitempty"`
	// CkptOverheadFrac is the noisy secondary indicator: this row's wall
	// time relative to the best "stream" row. Treat ±10% as measurement
	// noise on a shared host.
	CkptOverheadFrac float64 `json:"ckpt_overhead_frac,omitempty"`
	// Incremental-calling fields, set only on the "+inc" rows
	// (mapping with the SNP caller overlapped at quiesce barriers).
	// CallFirstSeconds is the wall time from mapping start to the first
	// provisional sweep that produced at least one call — the
	// time-to-first-call headline, by construction smaller than the
	// row's total WallNs when coverage arrives before the stream ends.
	// CallFirstReads is the source watermark at that sweep; the Inc*
	// fields expose the per-region sweep cache behaviour and the final
	// call count (asserted identical to the one-shot post-map sweep).
	CallFirstSeconds float64 `json:"call_first_seconds,omitempty"`
	CallFirstReads   int64   `json:"call_first_reads,omitempty"`
	IncSweeps        int64   `json:"inc_sweeps,omitempty"`
	IncRegionsSwept  int64   `json:"inc_regions_swept,omitempty"`
	IncRegionsReused int64   `json:"inc_regions_reused,omitempty"`
	IncCalls         int     `json:"inc_calls,omitempty"`
}

// heapSampler polls the live heap on a short period and keeps the
// high-water mark. Sampling (rather than a single post-run read) is
// needed because the interesting peak is mid-run, before the GC
// reclaims the transient read slice.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	runtime.GC() // level the baseline between rows
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var ms runtime.MemStats
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak {
					s.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return s
}

func (s *heapSampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// streamBenchIters is the repeat count per row; each row reports its
// fastest repeat. Single ~700ms runs on a shared host carry ±20% wall
// noise — far more than the few-percent checkpoint overhead the rows
// exist to measure — and best-of-N under identical work converges on
// the true cost from above.
const streamBenchIters = 3

// StreamBench maps the dataset from an on-disk FASTQ through the one
// mapping pipeline (Open + MapReadsFrom) under each combination of its
// barrier subscribers: none ("stream"), periodic durable checkpoints
// every ckptEvery reads ("stream+ckpt"), incremental SNP calling
// overlapped at the same cadence ("stream+inc"), and both on the one
// quiesce barrier ("stream+ckpt+inc"); ckptEvery 0 runs only the plain
// row. It reports wall time, throughput, sampled peak heap, the
// pipeline's resident-reads high-water mark, the checkpointing overhead
// and the time to first provisional call. Every row is the best of
// streamBenchIters repeats. Equivalent work is asserted, not assumed:
// every row's accumulator mass and one-shot call set must match the
// plain row's, and an incremental row's final sweep must equal the
// one-shot sweep over its own accumulator exactly.
func StreamBench(ds *Dataset, workers, batch, queue int, ckptEvery int64) ([]StreamBenchRow, error) {
	dir, err := os.MkdirTemp("", "streambench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fq := filepath.Join(dir, "reads.fq")
	if err := fastq.WriteFile(fq, ds.Reads, fastq.Sanger); err != nil {
		return nil, err
	}
	callCfg := snp.Config{Ploidy: lrt.Diploid, UseFDR: true}

	// measure runs one repeat of a row and returns it with the run's
	// accumulator and its one-shot call set (computed after the clock
	// stops) for the cross-row equivalence checks.
	measure := func(path string, withCkpt, withInc bool) (StreamBenchRow, genome.Accumulator, []snp.Call, error) {
		fail := func(err error) (StreamBenchRow, genome.Accumulator, []snp.Call, error) {
			return StreamBenchRow{}, nil, nil, err
		}
		acc, err := genome.New(genome.Norm, ds.Ref.Len())
		if err != nil {
			return fail(err)
		}
		reg := obs.NewRegistry()
		eng, err := core.NewEngine(ds.Ref, core.Config{Workers: workers, Batch: batch, Queue: queue, Metrics: reg})
		if err != nil {
			return fail(err)
		}
		row := StreamBenchRow{Path: path, Workers: workers, Batch: batch, Queue: queue}
		var policy core.CheckpointPolicy
		sampler := startHeapSampler()
		start := time.Now()

		// Same overlap discipline as the production committer: the
		// subscriber (running during the quiesce) only hands the snapshot
		// off; the durable write proceeds while mapping resumes, one in
		// flight.
		pending := make(chan error, 1)
		pending <- nil
		if withCkpt {
			row.CkptEveryReads = ckptEvery
			ckPath := filepath.Join(dir, "bench.ckpt")
			fp := ckpt.Fingerprint{RefLen: int64(ds.Ref.Len())}
			policy.Subscribers = append(policy.Subscribers, core.BarrierSubscriber{EveryReads: ckptEvery, Run: func(b *core.Barrier) error {
				if err := <-pending; err != nil {
					return err
				}
				state, err := b.State()
				if err != nil {
					return err
				}
				cp := &ckpt.Checkpoint{
					Fingerprint:   fp,
					ReadsConsumed: b.Consumed,
					Mapped:        b.Stats.Mapped,
					Unmapped:      b.Stats.Unmapped,
					Locations:     b.Stats.Locations,
					State:         state,
				}
				go func() {
					n, err := ckpt.WriteFile(ckPath, cp)
					row.CkptWrites++
					row.CkptBytes += n
					pending <- err
				}()
				return nil
			}})
		}
		var ic *snp.IncrementalCaller
		if withInc {
			row.CkptEveryReads = ckptEvery
			ic, err = snp.NewIncrementalCaller(ds.Ref, acc, 0, callCfg)
			if err != nil {
				return fail(err)
			}
			eng.SetRegionTracker(ic.Tracker())
			policy.Subscribers = append(policy.Subscribers, core.BarrierSubscriber{EveryReads: ckptEvery, Run: func(b *core.Barrier) error {
				if err := ic.Sweep(); err != nil {
					return err
				}
				calls, _, err := ic.Provisional()
				if err != nil {
					return err
				}
				if len(calls) > 0 && row.CallFirstSeconds == 0 {
					row.CallFirstSeconds = time.Since(start).Seconds()
					row.CallFirstReads = b.Consumed
				}
				return nil
			}})
		}

		src, err := fastq.Open(fq, fastq.Sanger)
		if err != nil {
			return fail(err)
		}
		_, err = eng.MapReadsFrom(src, acc, 0, &policy)
		if ferr := <-pending; err == nil { // final commit must be durable
			err = ferr
		}
		if cerr := src.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
		// An incremental row's wall covers everything through the
		// definitive call set; the verification sweep below is excluded.
		var final []snp.Call
		if withInc {
			if final, _, err = ic.Finalize(); err != nil {
				return fail(err)
			}
		}
		wall := time.Since(start)
		row.Reads = int(src.Records())
		row.WallNs = wall.Nanoseconds()
		row.ReadsPerSec = float64(src.Records()) / wall.Seconds()
		row.PeakHeapBytes = sampler.Stop()
		row.PeakResidentReads = int64(reg.Gauge("stream.peak.resident.reads").Value())
		if withCkpt {
			row.CkptStallFrac = reg.Timer("stream.ckpt.stall.seconds").Sum() / wall.Seconds()
		}
		calls, _, err := snp.CallAll(ds.Ref, acc, callCfg)
		if err != nil {
			return fail(err)
		}
		if withInc {
			if !reflect.DeepEqual(final, calls) {
				return fail(fmt.Errorf("experiments: %s final calls diverge from one-shot sweep (%d vs %d)", path, len(final), len(calls)))
			}
			row.IncSweeps = ic.Sweeps()
			row.IncRegionsSwept = ic.RegionsSwept()
			row.IncRegionsReused = ic.RegionsReused()
			row.IncCalls = len(final)
		}
		return row, acc, calls, nil
	}

	// best keeps the fastest of streamBenchIters repeats of one row.
	best := func(path string, withCkpt, withInc bool) (StreamBenchRow, genome.Accumulator, []snp.Call, error) {
		var bestRow StreamBenchRow
		var bestAcc genome.Accumulator
		var bestCalls []snp.Call
		for i := 0; i < streamBenchIters; i++ {
			row, acc, calls, err := measure(path, withCkpt, withInc)
			if err != nil {
				return StreamBenchRow{}, nil, nil, err
			}
			if bestAcc == nil || row.WallNs < bestRow.WallNs {
				bestRow, bestAcc, bestCalls = row, acc, calls
			}
		}
		return bestRow, bestAcc, bestCalls, nil
	}

	streamRow, streamAcc, streamCalls, err := best("stream", false, false)
	if err != nil {
		return nil, err
	}
	rows := []StreamBenchRow{streamRow}
	if ckptEvery <= 0 {
		return rows, nil
	}
	for _, v := range []struct {
		path      string
		ckpt, inc bool
	}{
		{"stream+ckpt", true, false},
		{"stream+inc", false, true},
		{"stream+ckpt+inc", true, true},
	} {
		row, acc, calls, err := best(v.path, v.ckpt, v.inc)
		if err != nil {
			return nil, err
		}
		for pos := 0; pos < ds.Ref.Len(); pos += 211 {
			a, b := streamAcc.Total(pos), acc.Total(pos)
			if diff := a - b; diff > 1e-3*(1+a) || diff < -1e-3*(1+a) {
				return nil, fmt.Errorf("experiments: %s/stream accumulators diverge at %d: %v vs %v", v.path, pos, b, a)
			}
		}
		if len(calls) != len(streamCalls) {
			return nil, fmt.Errorf("experiments: %s calls %d SNPs, stream row %d", v.path, len(calls), len(streamCalls))
		}
		for i, c := range calls {
			if w := streamCalls[i]; c.GlobalPos != w.GlobalPos || c.Allele != w.Allele || c.Het != w.Het {
				return nil, fmt.Errorf("experiments: %s call %d is %+v, stream row has %+v", v.path, i, c, w)
			}
		}
		if v.ckpt {
			row.CkptOverheadFrac = float64(row.WallNs-streamRow.WallNs) / float64(streamRow.WallNs)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
