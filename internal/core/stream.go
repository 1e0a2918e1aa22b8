package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/obs"
)

// One owner of the read stream per run: rank 0 pulls the fastq.Source
// into batches, polls StopRequested and runs barrier subscribers at
// rounds — the read-split dealer (cluster_stream.go) at every node
// count, or genome-split's leader (cluster.go). MapReadsFrom is the
// dealer with no peers; every batch it deals lands in a pipe, one
// rank's mapping workers. A pipe's footprint is fixed by configuration:
//
//   - feed hands a worker a batch through a work channel bounded at
//     queueBatches batches, so the feeder blocks — backpressure on the
//     input stream — once the queue is full and every worker holds a
//     batch. Fed and unfinished reads never exceed
//     (queueBatches + Workers) · batchReads;
//   - each worker reuses its zero-allocation mapper across batches;
//   - the first failure — a worker's, or one the dealer latches when
//     it gives up — stops the workers mapping (they drain what is
//     queued unmapped), and the next feed or quiesce returns it;
//   - quiesce waits out the in-flight batches — after it, every
//     accumulator write is visible to the feeder — and returns the
//     stats mapped since the previous quiesce;
//   - finish closes the feed and waits the workers out.
//
// See DESIGN.md §10 for the invariants and the observability hooks.

// streamMetrics pre-resolves the streaming pipeline's gauges and
// counters (nil when observability is off):
//
//	stream.queue.depth        gauge: batches waiting in the work queue
//	stream.peak.resident.reads gauge: high-water mark of reads fed and
//	                           not yet finished (the memory-bound witness)
//	stream.batches            counter: batches fed
//	stream.reads              counter: reads fed
type streamMetrics struct {
	queueDepth   *obs.Gauge
	peakResident *obs.Gauge
	batches      *obs.Counter
	reads        *obs.Counter
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
	}
}

// ErrStopped is returned by MapReadsFrom after a cooperative stop: the
// pipeline drained, every barrier subscriber ran one last time, and
// mapping ended early by request rather than by error or end of input.
var ErrStopped = errors.New("core: stop requested; run state checkpointed")

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
	// first wins. With neither set the subscriber runs only at the
	// final barrier of a requested stop.
	Every time.Duration
	// Run is called while the pipeline is parked; it may read the
	// accumulator directly. An error aborts the run.
	Run func(b *Barrier) error
}

// CheckpointPolicy is what MapReadsFrom does at quiesce barriers. The
// pipeline parks whenever some subscriber is due and runs the due ones
// (in list order) before resuming, so the durable-checkpoint sink and
// the incremental calling sweep share one quiesce. A requested stop
// runs every subscriber.
type CheckpointPolicy struct {
	Subscribers []BarrierSubscriber
	// StopRequested, when non-nil, is polled between batches; returning
	// true drains the pipeline, runs every subscriber one last time, and
	// makes MapReadsFrom return ErrStopped.
	StopRequested func() bool
}

// cadence is a policy's trigger state: per subscriber, the reads
// consumed and the wall time since it last ran. Rank 0 of either split
// asks it which subscribers are due, runs a round, and has it run them.
type cadence struct {
	subs  []BarrierSubscriber
	stop  func() bool // the policy's StopRequested
	since []int64
	last  []time.Time
	due   []int          // scratch for dueNow's result
	stall *obs.Histogram // the run's wait on each subscriber run; nil without metrics
}

// newCadence starts the triggers of policy, which may be nil.
func newCadence(policy *CheckpointPolicy, reg *obs.Registry) *cadence {
	if policy == nil {
		policy = &CheckpointPolicy{}
	}
	subs := policy.Subscribers
	c := &cadence{subs: subs, stop: policy.StopRequested, since: make([]int64, len(subs)), last: make([]time.Time, len(subs)), due: make([]int, 0, len(subs))}
	if reg != nil {
		c.stall = reg.Timer("stream.ckpt.stall.seconds")
	}
	for i := range c.last {
		c.last[i] = time.Now()
	}
	return c
}

// stopRequested polls the policy's StopRequested.
func (c *cadence) stopRequested() bool { return c.stop != nil && c.stop() }

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
	if len(due) == 0 {
		return nil
	}
	start := time.Now()
	for _, i := range due {
		if err := c.subs[i].Run(b); err != nil {
			return fmt.Errorf("core: barrier subscriber: %w", err)
		}
		c.since[i], c.last[i] = 0, time.Now()
	}
	if c.stall != nil {
		c.stall.ObserveDuration(time.Since(start))
	}
	return nil
}

// MapReadsFrom maps every read src yields, accumulating online into
// acc, while holding at most (queueBatches + Workers) · batchReads reads
// fed and unfinished. At Workers = 1 reads are mapped in source order, so the
// accumulated bytes depend only on the input.
//
// It is the read-split dealer with no peers: no cluster transport, the
// same batches, stop polling and barriers. A non-nil policy adds quiesce
// barriers: when a subscriber is due the pipe waits out its in-flight
// batches and the due subscribers run on the parked accumulator.
func (e *Engine) MapReadsFrom(src fastq.Source, acc genome.Accumulator, policy *CheckpointPolicy) (Stats, error) {
	if acc == nil {
		return Stats{}, fmt.Errorf("core: nil accumulator")
	}
	return deal(nil, e, acc, src, policy)
}

// pipe is one rank's mapping workers draining the batches its dealer
// (or, on a worker rank, streamReceive) feeds them. One goroutine feeds
// it, so between a quiesce and the next feed the workers are idle and
// that goroutine may touch the accumulator.
type pipe struct {
	work     chan []*fastq.Read
	workers  sync.WaitGroup
	inflight sync.WaitGroup // batches fed and not yet finished
	st       Stats          // mapped since the last quiesce
	sm       *streamMetrics
	closed   bool
	// resident counts the reads fed and not yet finished; peak is its
	// high-water mark, kept by the feeder.
	resident atomic.Int64
	peak     int64
	mu       sync.Mutex
	err      error // the first failure latched
}

// startPipe starts Config.Workers mapping workers over acc.
func (e *Engine) startPipe(acc genome.Accumulator) *pipe {
	p := &pipe{work: make(chan []*fastq.Read, e.cfg.queue), sm: newStreamMetrics(e.cfg.Metrics)}
	for w := 0; w < e.cfg.Workers; w++ {
		p.workers.Add(1)
		go p.worker(e, acc)
	}
	return p
}

// worker maps batches until the feed closes. After the first failure it
// keeps draining the queue without mapping, so quiesce and finish
// still return.
func (p *pipe) worker(e *Engine, acc genome.Accumulator) {
	defer p.workers.Done()
	m, err := e.getMapper()
	if err != nil {
		p.latch(err)
	} else {
		defer e.putMapper(m)
	}
	var sink func(int, []location) error
	if m != nil {
		sink = m.accumulate(acc, &p.st)
	}
	for b := range p.work {
		if p.sm != nil {
			p.sm.queueDepth.Set(float64(len(p.work)))
		}
		if p.failure() == nil {
			if err := m.mapBatch(b, false, sink); err != nil {
				p.latch(err)
			}
		}
		p.resident.Add(-int64(len(b)))
		p.inflight.Done()
	}
}

func (p *pipe) latch(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *pipe) failure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// feed hands the workers a batch, blocking while the queue is full; it
// returns the first worker failure instead once one has latched.
func (p *pipe) feed(b []*fastq.Read) error {
	if err := p.failure(); err != nil {
		return err
	}
	p.inflight.Add(1)
	p.work <- b
	// Counted once the queue took it: the batch is queued or held by a
	// worker, so resident stays within (queueBatches + Workers) · batchReads.
	p.peak = max(p.peak, p.resident.Add(int64(len(b))))
	if p.sm != nil {
		p.sm.reads.Add(int64(len(b)))
		p.sm.batches.Inc()
		p.sm.queueDepth.Set(float64(len(p.work)))
		p.sm.peakResident.Set(float64(p.peak))
	}
	return nil
}

// quiesce waits out the in-flight batches and returns the stats mapped
// since the previous quiesce.
func (p *pipe) quiesce() (Stats, error) {
	p.inflight.Wait()
	if err := p.failure(); err != nil {
		return Stats{}, err
	}
	st := p.st
	p.st = Stats{}
	return st, nil
}

// finish closes the feed, waits the workers out and returns the first
// failure. Safe to call more than once.
func (p *pipe) finish() error {
	if !p.closed {
		p.closed = true
		close(p.work)
		p.workers.Wait()
		if p.sm != nil {
			p.sm.queueDepth.Set(0)
		}
	}
	return p.failure()
}
