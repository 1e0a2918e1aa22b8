package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/obs"
)

// The one shared-memory mapping run. MapReadsFrom pulls reads from a
// fastq.Source (a file, a channel of dealt batches, or an in-memory
// slice via fastq.SliceSource — MapReads is that wrapper) through a
// bounded producer/consumer pipeline whose footprint is fixed by
// configuration:
//
//   - one reader goroutine fills fixed-size batches (Config.Batch
//     reads each) and sends them into a work channel bounded at
//     Config.Queue batches;
//   - batch buffers are recycled through a free list of exactly
//     (Queue + Workers) buffers, so the producer blocks — backpressure
//     on the input stream — once every buffer is filled or being
//     mapped. Resident reads never exceed (Queue + Workers) · Batch;
//   - the mapper worker pool drains the queue, each worker reusing its
//     zero-allocation scratch state across batches;
//   - the first failure (worker or source) latches the error and a
//     stop signal: workers stop picking up batches, the producer stops
//     reading, and MapReadsFrom returns the first error;
//   - the producer can park the whole pipeline at a quiesce barrier and
//     run the policy's subscribers against a consistent accumulator.
//
// See DESIGN.md §10 for the invariants and the observability hooks.

// streamMetrics pre-resolves the streaming pipeline's gauges and
// counters (nil when observability is off):
//
//	stream.queue.depth        gauge: batches waiting in the work queue
//	stream.peak.resident.reads gauge: high-water mark of reads held in
//	                           batch buffers (the memory-bound witness)
//	stream.batches            counter: batches produced
//	stream.reads              counter: reads streamed through
type streamMetrics struct {
	queueDepth   *obs.Gauge
	peakResident *obs.Gauge
	batches      *obs.Counter
	reads        *obs.Counter
	ckptStall    *obs.Histogram
}

func newStreamMetrics(reg *obs.Registry) *streamMetrics {
	if reg == nil {
		return nil
	}
	return &streamMetrics{
		queueDepth:   reg.Gauge("stream.queue.depth"),
		peakResident: reg.Gauge("stream.peak.resident.reads"),
		batches:      reg.Counter("stream.batches"),
		reads:        reg.Counter("stream.reads"),
		// ckptStall observes, per checkpoint, the window where the whole
		// pipeline is idle: quiesce complete (every worker parked) through
		// snapshot and sink return. The drain before it is productive —
		// workers are mapping queued batches — so this, not wall-clock
		// differencing, is the checkpoint feature's added critical-path
		// time.
		ckptStall: reg.Timer("stream.ckpt.stall.seconds"),
	}
}

// readBatch is one recycled unit of streaming work. Only the slice
// header is reused; the reads themselves are owned by the garbage
// collector once their batch has been mapped.
type readBatch struct {
	reads []*fastq.Read
}

// ErrStopped is returned by MapReadsFrom after a cooperative stop: the
// pipeline drained, every barrier subscriber ran one last time, and
// mapping ended early by request rather than by error or end of input.
var ErrStopped = errors.New("core: stop requested; run state checkpointed")

// ErrCkptBarrier is a sentinel a fastq.Source may return to request an
// out-of-band barrier instead of more reads. The streaming pipeline
// drains in-flight batches, runs every subscriber, and then resumes
// pulling from the source. The cluster dealing protocol uses it to
// propagate rank 0's checkpoint rounds into each rank's local pipeline;
// it is not an error and never escapes MapReadsFrom.
var ErrCkptBarrier = errors.New("core: checkpoint barrier")

// Barrier is the parked pipeline as a subscriber sees it: the work
// queue drained, every worker idle, every accumulator write visible.
type Barrier struct {
	// Consumed counts the reads pulled from the source so far THIS RUN;
	// Stats are the mapping outcomes of exactly those reads.
	Consumed int64
	Stats    Stats
	acc      genome.Accumulator
}

// State serializes the accumulator as of this barrier (including any
// state loaded before the run). The returned slice is private to the
// caller.
func (b *Barrier) State() ([]byte, error) { return b.acc.State() }

// BarrierSubscriber is one listener on the pipeline's quiesce barrier,
// with its own cadence.
type BarrierSubscriber struct {
	// EveryReads makes the subscriber due each time this many reads have
	// been consumed since it last ran (0 = no read-count trigger).
	EveryReads int64
	// Every makes it due when this much wall time has passed since it
	// last ran (0 = no time trigger). Both may be set; whichever fires
	// first wins. With neither set the subscriber runs only at source
	// barriers and the final barrier of a requested stop.
	Every time.Duration
	// Run is called while the pipeline is parked; it may read the
	// accumulator directly. An error aborts the run.
	Run func(b *Barrier) error
}

// CheckpointPolicy is what MapReadsFrom does at quiesce barriers. The
// pipeline parks whenever some subscriber is due and runs the due ones
// (in list order) before resuming, so the durable-checkpoint sink and
// the incremental calling sweep share one quiesce. A source barrier
// (ErrCkptBarrier) and a requested stop run every subscriber.
type CheckpointPolicy struct {
	Subscribers []BarrierSubscriber
	// StopRequested, when non-nil, is polled between batches; returning
	// true drains the pipeline, runs every subscriber one last time, and
	// makes MapReadsFrom return ErrStopped.
	StopRequested func() bool
}

// cadence is a policy's trigger state: per subscriber, the reads
// consumed and the wall time since it last ran. Whoever owns a barrier
// — MapReadsFrom's producer in one process, the read-split dealer across
// ranks — asks it which subscribers are due, parks, and has it run them.
type cadence struct {
	subs  []BarrierSubscriber
	since []int64
	last  []time.Time
	due   []int // scratch for dueNow's result
}

func newCadence(subs []BarrierSubscriber) *cadence {
	c := &cadence{subs: subs, since: make([]int64, len(subs)), last: make([]time.Time, len(subs)), due: make([]int, 0, len(subs))}
	for i := range c.last {
		c.last[i] = time.Now()
	}
	return c
}

// advance counts n more consumed reads toward every read-count trigger.
func (c *cadence) advance(n int64) {
	for i := range c.since {
		c.since[i] += n
	}
}

// dueNow lists the subscribers a barrier taken now would run: every one
// when all is set, else those whose trigger has fired. The result is
// valid until the next call.
func (c *cadence) dueNow(all bool) []int {
	c.due = c.due[:0]
	for i, s := range c.subs {
		if all || (s.EveryReads > 0 && c.since[i] >= s.EveryReads) ||
			(s.Every > 0 && time.Since(c.last[i]) >= s.Every) {
			c.due = append(c.due, i)
		}
	}
	return c.due
}

// run calls the listed subscribers, in order, on the parked state b and
// restarts their triggers.
func (c *cadence) run(due []int, b *Barrier) error {
	for _, i := range due {
		if err := c.subs[i].Run(b); err != nil {
			return fmt.Errorf("core: barrier subscriber: %w", err)
		}
		c.since[i], c.last[i] = 0, time.Now()
	}
	return nil
}

// MapReadsFrom maps every read src yields, accumulating online into
// acc, while holding at most (Queue + Workers) · Batch reads in memory.
// Accumulator index 0 corresponds to global position accOffset (zero
// for a whole-genome accumulator). At Workers = 1 reads are mapped in
// source order, so the accumulated bytes depend only on the input.
//
// A non-nil policy adds quiesce barriers: the producer collects all
// (Queue + Workers) recycled buffers from the free list, which can only
// succeed once the work queue is empty and every worker has finished
// its batch — so the channel handoffs give the producer a
// happens-before edge over every accumulator write — runs the
// subscribers, and resumes.
func (e *Engine) MapReadsFrom(src fastq.Source, acc genome.Accumulator, accOffset int, policy *CheckpointPolicy) (Stats, error) {
	var st Stats
	if acc == nil {
		return st, fmt.Errorf("core: nil accumulator")
	}
	if src == nil {
		return st, fmt.Errorf("core: nil read source")
	}
	if policy == nil {
		policy = &CheckpointPolicy{}
	}
	workers, batchSz, queue := e.cfg.Workers, e.cfg.Batch, e.cfg.Queue
	sm := newStreamMetrics(e.cfg.Metrics)

	// The free list is the memory bound: (queue + workers) buffers in
	// total, so at most `queue` batches can wait in the work channel
	// while every worker holds one.
	nbuf := queue + workers
	free := make(chan *readBatch, nbuf)
	for i := 0; i < nbuf; i++ {
		free <- &readBatch{reads: make([]*fastq.Read, 0, batchSz)}
	}
	work := make(chan *readBatch, queue)
	stopCh := make(chan struct{})
	var stopOnce sync.Once
	var errMu sync.Mutex
	var firstErr error
	latch := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stopOnce.Do(func() { close(stopCh) })
	}
	var resident, peak atomic.Int64

	// Producer: fill batches from the source until EOF, error, or stop,
	// parking the pipeline whenever a subscriber is due (or the source
	// or a stop request asks for a barrier).
	var prodWG sync.WaitGroup
	prodWG.Add(1)
	go func() {
		defer prodWG.Done()
		defer close(work)
		var consumed int64
		cad := newCadence(policy.Subscribers)
		held := make([]*readBatch, 0, nbuf)
		release := func() {
			for _, hb := range held {
				free <- hb
			}
			held = held[:0]
		}
		// quiesce collects every recycled buffer: possible only once the
		// work queue is empty and all workers are idle between batches.
		quiesce := func() bool {
			for len(held) < nbuf {
				select {
				case hb := <-free:
					held = append(held, hb)
				case <-stopCh:
					release()
					return false
				}
			}
			return true
		}
		// barrier runs the subscribers that are due (every one when all
		// is set) with the pipeline parked, then resumes; with none to run
		// it does not park. False aborts the run.
		barrier := func(all bool) bool {
			due := cad.dueNow(all)
			if len(due) == 0 {
				return true
			}
			if !quiesce() {
				return false
			}
			stallStart := time.Now()
			err := cad.run(due, &Barrier{
				Consumed: consumed,
				Stats: Stats{
					Mapped:    atomic.LoadInt64(&st.Mapped),
					Unmapped:  atomic.LoadInt64(&st.Unmapped),
					Locations: atomic.LoadInt64(&st.Locations),
				},
				acc: acc,
			})
			release()
			if err != nil {
				latch(err)
				return false
			}
			if sm != nil {
				sm.ckptStall.ObserveDuration(time.Since(stallStart))
			}
			return true
		}
		for {
			if policy.StopRequested != nil && policy.StopRequested() {
				if barrier(true) {
					latch(ErrStopped)
				}
				return
			}
			var b *readBatch
			select {
			case b = <-free:
			case <-stopCh:
				return
			}
			b.reads = b.reads[:0]
			var srcErr error
			for len(b.reads) < batchSz {
				rd, err := src.Next()
				if err != nil {
					srcErr = err
					break
				}
				b.reads = append(b.reads, rd)
			}
			srcBarrier := errors.Is(srcErr, ErrCkptBarrier)
			if n := len(b.reads); n > 0 {
				r := resident.Add(int64(n))
				for {
					p := peak.Load()
					if r <= p || peak.CompareAndSwap(p, r) {
						break
					}
				}
				if sm != nil {
					sm.reads.Add(int64(n))
					sm.batches.Inc()
					sm.peakResident.Set(float64(peak.Load()))
				}
				select {
				case work <- b:
					if sm != nil {
						sm.queueDepth.Set(float64(len(work)))
					}
				case <-stopCh:
					return
				}
				consumed += int64(n)
				cad.advance(int64(n))
			} else {
				// Unused buffer goes straight back so quiesce can count it.
				free <- b
			}
			if srcBarrier {
				if !barrier(true) {
					return
				}
				continue
			}
			if srcErr != nil {
				if srcErr != io.EOF {
					latch(fmt.Errorf("core: read source: %w", srcErr))
				}
				return
			}
			if !barrier(false) {
				return
			}
		}
	}()

	// Workers: drain the queue until it closes or an error latches.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := e.getMapper()
			if err != nil {
				latch(err)
				return
			}
			defer e.putMapper(m)
			sink := m.accumulate(acc, accOffset, &st)
			for b := range work {
				select {
				case <-stopCh:
					// Error latched elsewhere: stop picking up batches.
					return
				default:
				}
				if sm != nil {
					sm.queueDepth.Set(float64(len(work)))
				}
				if err := m.mapBatch(b.reads, false, sink); err != nil {
					latch(err)
					return
				}
				resident.Add(-int64(len(b.reads)))
				b.reads = b.reads[:0]
				free <- b
			}
		}()
	}
	wg.Wait()
	prodWG.Wait()
	if sm != nil {
		sm.queueDepth.Set(0)
		sm.peakResident.Set(float64(peak.Load()))
	}
	return st, firstErr
}
