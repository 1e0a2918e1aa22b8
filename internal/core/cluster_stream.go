package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"gnumap/internal/cluster"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
)

func init() {
	gob.Register(streamShard{})
	gob.Register(roundPayload{})
}

// Read-split, the one protocol. Rank 0 owns the input stream and deals
// fixed-size batches round-robin to the ranks — batch i goes to rank
// i mod size, so the shard assignment is deterministic regardless of
// relative rank speed. A per-rank credit window of Config.Queue
// unacknowledged batches gives the same backpressure the local pipeline
// has: rank 0 never buffers more than Queue batches per remote rank
// plus its own (Queue + Workers)-buffer local pipeline, so cluster-wide
// resident reads stay bounded by configuration while the input can be
// arbitrarily large. Each rank feeds its arriving batches into
// Engine.MapReadsFrom through a channel-backed Source.
//
// Rounds drain. On a round marker every rank quiesces its pipeline,
// ships {accumulator state, stats} for the batches dealt to it since
// its last round and resets its accumulator; rank 0 folds each payload
// straight into its own accumulator, which therefore holds the
// cluster-wide state as of the marker. Per-(sender, tag) FIFO ordering
// guarantees a payload covers exactly the batches dealt before the
// marker. The rounds are the quiesce barriers of the CheckpointPolicy
// Engine.MapReadsFrom takes: when a subscriber of the policy is due,
// rank 0 runs a round and then the due subscribers on a Barrier whose
// Consumed is the dealt-read watermark and whose Stats and state are
// cluster-wide — so a checkpoint sink written for one process works on N
// ranks unchanged. The end of the stream is one more round followed by
// Done carrying the global stats (the paper's "communicate the state of
// their genome", §VI Step 1) — there is no separate final reduction.
//
// Fault tolerance is the ledger. With an op timeout configured rank 0
// retains each remote rank's batches since that rank's last collected
// payload, and every wait is a patient receive (a plain blocking one at
// timeout 0, so the plain and the fault-tolerant run are the same
// code). Acks are cumulative — each carries the number of batches the
// worker has taken so far — and a collected payload settles the rank's
// window, so a lost ack is superseded by the next one or the next round
// instead of costing the rank a credit for good. A rank whose ack or
// payload never arrives, or whose payload does not account for exactly
// its ledger's reads (a dropped or duplicated batch), leaves the
// rotation and its ledger is re-dealt through the normal dealing path:
// to the survivors and, like any batch, to rank 0's own pipeline. A
// round that lost a rank repeats until clean before any subscriber
// runs, so a committed watermark never covers reads whose mass died
// with a rank; every read's mass is in the result exactly once. Done
// goes to every non-root rank, lost or not: a rank wrongly declared
// lost is alive and waiting for it. A rank acks Done (a farewell) and
// rank 0 re-sends Done a few times while it hears none, so a Done the
// network eats does not strand a worker.
//
// Rank 0 itself is not recoverable — it holds the merge — so its death
// aborts the run (workers detect it via heartbeat loss and error out).
//
// Memory: without an op timeout nothing is retained. With one, the
// ledger holds the remote ranks' share of one round interval when
// checkpoint rounds are on, and of the whole input otherwise
// (stream.ledger.peak.reads is the witness).

// streamShard is one message of the dealing protocol: a batch of reads,
// a round marker (Round > 0, the round's sequence number) or the end of
// the run (Done, with the global Stats).
type streamShard struct {
	Reads []*fastq.Read
	Round int
	Done  bool
	Stats Stats
}

// roundPayload is one rank's quiesced contribution to a round: its
// serialized accumulator state and mapping statistics since its
// previous round. Round echoes the marker, so rank 0 can tell a
// duplicated or delayed payload of an earlier round from this one's.
type roundPayload struct {
	Round int
	State []byte
	Stats Stats
}

// The protocol's tags (user tag space; 1003 is GatherMetrics').
const (
	streamShardTag = 1004
	streamAckTag   = 1005
	streamRoundTag = 1006
)

// farewell is the ack a worker sends on Done (every other ack counts
// batches taken and is positive); doneTries bounds the Done re-sends.
const (
	farewell  = -1
	doneTries = 3
)

// ftMaxExtensions bounds how many deadline extensions a patient
// receive grants a peer whose heartbeats still arrive. A worker grants
// rank 0 as many as it needs: rank 0 may itself be waiting out a lost
// rank, and a worker that gave up first would fail the run.
const (
	ftMaxExtensions = 40
	workerPatience  = math.MaxInt32
)

// errLedgerMismatch marks a round payload that does not account for
// exactly the reads dealt to its rank since the previous round.
var errLedgerMismatch = errors.New("core: round payload disagrees with the rank's ledger")

// chanSource adapts a channel of read batches to a fastq.Source.
type chanSource struct {
	ch  <-chan []*fastq.Read
	cur []*fastq.Read
	pos int
}

func (s *chanSource) Next() (*fastq.Read, error) {
	for s.pos >= len(s.cur) {
		b, ok := <-s.ch
		if !ok {
			return nil, io.EOF
		}
		if b == nil {
			// A nil batch is the in-band round barrier: the local
			// pipeline quiesces and snapshots, then keeps reading.
			return nil, ErrCkptBarrier
		}
		s.cur, s.pos = b, 0
	}
	rd := s.cur[s.pos]
	s.pos++
	return rd, nil
}

// RunReadSplit executes read-split mapping on one cluster node (§VI
// Step 1; the protocol is described above) with the rank's own engine
// and accumulator. src and policy belong to rank 0 — it must have a
// source — and are ignored elsewhere. When rank 0 returns, its
// accumulator holds the cluster-wide state on top of whatever it held
// before (a resumed checkpoint, an earlier mapping call); the others'
// are drained. Stats are global on every rank, with LostRanks set at
// rank 0. The policy's subscribers run at rank 0 on cluster-wide
// barriers (see above); after a requested stop every rank is released
// normally and rank 0 returns ErrStopped.
func RunReadSplit(c *cluster.Comm, eng *Engine, acc genome.Accumulator, src fastq.Source, policy *CheckpointPolicy) (Stats, error) {
	if c.Rank() != 0 {
		return streamReceive(c, startPipe(eng, acc, true))
	}
	if src == nil {
		return Stats{}, fmt.Errorf("core: rank 0 needs a read source")
	}
	if policy == nil {
		policy = &CheckpointPolicy{}
	}
	d := &dealer{c: c, src: src, acc: acc, cfg: eng.cfg, policy: policy, cad: newCadence(policy.Subscribers),
		pipe: startPipe(eng, acc, false), peers: make([]peer, c.Size())}
	stopped, err := d.run()
	if err != nil {
		return Stats{}, err
	}
	if stopped {
		err = ErrStopped
	}
	return d.total, err
}

// localPipe is a rank's MapReadsFrom running on a channel-backed
// source. The goroutine that feeds it is its only feeder, so between a
// barrier and the next batch fed the pipeline is idle and that
// goroutine may touch the accumulator.
type localPipe struct {
	// ch carries batches (nil = barrier) with Queue of slack, the same
	// backpressure the credit window gives a remote rank.
	ch     chan []*fastq.Read
	rounds chan roundPayload
	done   chan struct{}
	closed bool
	err    error
}

// startPipe starts the pipeline. Its one barrier subscriber has no
// trigger of its own, so it runs exactly at the barriers fed in band,
// and reports the mapping stats since the previous barrier; with ship
// set (worker ranks) it also snapshots the accumulator state and resets
// the accumulator, so every payload carries only new mass.
func startPipe(eng *Engine, acc genome.Accumulator, ship bool) *localPipe {
	p := &localPipe{ch: make(chan []*fastq.Read, eng.cfg.Queue), rounds: make(chan roundPayload, 1), done: make(chan struct{})}
	var prev Stats
	pol := &CheckpointPolicy{Subscribers: []BarrierSubscriber{{Run: func(b *Barrier) error {
		out := roundPayload{Stats: Stats{Mapped: b.Stats.Mapped - prev.Mapped,
			Unmapped: b.Stats.Unmapped - prev.Unmapped, Locations: b.Stats.Locations - prev.Locations}}
		prev = b.Stats
		if ship {
			var err error
			if out.State, err = b.State(); err != nil {
				return err
			}
			genome.Reset(acc)
		}
		p.rounds <- out
		return nil
	}}}}
	go func() {
		defer close(p.done)
		_, p.err = eng.MapReadsFrom(&chanSource{ch: p.ch}, acc, 0, pol)
	}()
	return p
}

// feed hands the pipeline a batch (nil = barrier), or reports why it
// has ended.
func (p *localPipe) feed(b []*fastq.Read) error {
	select {
	case p.ch <- b:
		return nil
	case <-p.done:
		return p.ended()
	}
}

func (p *localPipe) ended() error {
	if p.err != nil {
		return p.err
	}
	return fmt.Errorf("core: local pipeline ended before its feeder")
}

// quiesce drains the pipeline through a barrier and returns what it
// mapped since the previous one.
func (p *localPipe) quiesce() (roundPayload, error) {
	if err := p.feed(nil); err != nil {
		return roundPayload{}, err
	}
	select {
	case out := <-p.rounds:
		return out, nil
	case <-p.done:
		return roundPayload{}, p.ended()
	}
}

// finish closes the feed, waits the pipeline out and returns its error.
// Safe to call more than once.
func (p *localPipe) finish() error {
	if !p.closed {
		p.closed = true
		close(p.ch)
	}
	<-p.done
	return p.err
}

// peer is what rank 0 knows about one remote rank.
type peer struct {
	lost bool
	// sent counts the batches sent to the rank and acked the most it has
	// reported taking; sent - acked is the credit window in use.
	sent, acked int
	// reads counts the reads dealt since the rank's last collected
	// payload; ledger retains those batches when the run can re-deal
	// them (op timeout configured).
	reads  int64
	ledger [][]*fastq.Read
}

// dealer is rank 0's half of the protocol.
type dealer struct {
	c   *cluster.Comm
	src fastq.Source
	acc genome.Accumulator
	cfg Config
	// policy is the run's barrier policy and cad its trigger state.
	policy *CheckpointPolicy
	cad    *cadence
	pipe   *localPipe
	peers  []peer // by rank; peers[0] is unused
	// next is the rotation cursor: batch i of a loss-free run goes to
	// rank i mod size.
	next int
	// redeal queues lost ranks' ledgers for the normal dealing path.
	redeal [][]*fastq.Read
	eof    bool
	// dealt is the source watermark.
	dealt int64
	// seq numbers the rounds. held counts the reads dealt to remote
	// ranks and not yet collected — what the ledgers retain — and peak
	// is its high-water mark.
	seq        int
	held, peak int64
	total      Stats // every collected payload plus rank 0's own share
}

// run deals the stream, runs a round whenever a subscriber is due and
// one at the end, and releases every rank. The bool result reports a
// requested stop.
func (d *dealer) run() (stopped bool, err error) {
	defer d.pipe.finish()
	for {
		if d.policy.StopRequested != nil && d.policy.StopRequested() {
			stopped = true
			break
		}
		batch, err := d.nextBatch()
		if err != nil {
			return false, err
		}
		if batch == nil {
			break
		}
		if err := d.deal(batch); err != nil {
			return false, err
		}
		if due := d.cad.dueNow(false); len(due) > 0 {
			if err := d.round(due); err != nil {
				return false, err
			}
		}
	}
	// The tail is the last round; as in one process, a stop runs every
	// subscriber on it and the end of input none. Its payloads account
	// for every batch dealt, so acks still in flight are not waited for.
	var due []int
	if stopped {
		due = d.cad.dueNow(true)
	}
	if err := d.round(due); err != nil {
		return false, err
	}
	for r := 1; r < len(d.peers); r++ {
		d.release(r)
	}
	if reg := d.cfg.Metrics; reg != nil && d.c.OpTimeout() > 0 {
		reg.Gauge("stream.ledger.peak.reads").Set(float64(d.peak))
	}
	return stopped, d.pipe.finish()
}

// release sends rank r Done and waits for its farewell, sending Done
// again each time a deadline passes without one, up to doneTries times:
// a Done the network ate would leave a live worker waiting for rank 0
// until rank 0's heartbeats stop, and then fail the finished run. Lost
// ranks are released too — a rank wrongly declared lost is alive and
// waiting — but one the failure detector counts dead gets Done once.
// Any failure ends the wait as the farewell does: a rank that died, or
// returned after a farewell the network ate, cannot undo a finished
// run.
func (d *dealer) release(r int) {
	done := streamShard{Done: true, Stats: d.total}
	for try := 0; try < doneTries; try++ {
		if d.c.Send(r, streamShardTag, done) != nil || !d.c.Alive(r) {
			return
		}
		for {
			v, err := d.c.RecvPatient(r, streamAckTag, d.c.OpTimeout(), 0)
			if errors.Is(err, cluster.ErrTimeout) {
				break // alive (or no failure detector) but silent: send again
			}
			if n, _ := v.(int); err != nil || n == farewell {
				return
			}
			// A stale cumulative ack; the farewell is behind it.
		}
	}
}

// nextBatch returns the next batch to deal: a lost rank's, while there
// are any, else up to Config.Batch reads of the source; nil at its end.
func (d *dealer) nextBatch() ([]*fastq.Read, error) {
	if n := len(d.redeal); n > 0 {
		batch := d.redeal[n-1]
		d.redeal = d.redeal[:n-1]
		return batch, nil
	}
	if d.eof {
		return nil, nil
	}
	batch := make([]*fastq.Read, 0, d.cfg.Batch)
	for len(batch) < d.cfg.Batch {
		rd, err := d.src.Next()
		if err == io.EOF {
			d.eof = true
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: read source: %w", err)
		}
		batch = append(batch, rd)
	}
	d.dealt += int64(len(batch))
	d.cad.advance(int64(len(batch)))
	if len(batch) == 0 {
		return nil, nil
	}
	return batch, nil
}

// deal hands one batch to the next rank of the rotation that takes it.
func (d *dealer) deal(batch []*fastq.Read) error {
	for {
		r := d.next % len(d.peers)
		d.next++
		if r == 0 {
			return d.pipe.feed(batch)
		}
		if d.peers[r].lost {
			continue
		}
		err := d.send(r, batch)
		if err == nil {
			return nil
		}
		if err := d.drop(r, err); err != nil {
			return err
		}
	}
}

// send enforces rank r's credit window, sends it the batch and enters
// the batch in its ledger.
func (d *dealer) send(r int, batch []*fastq.Read) error {
	p := &d.peers[r]
	for p.sent-p.acked >= d.cfg.Queue {
		// Credit window full: wait for this rank to take a batch before
		// handing it another. Any ack that reports more than the last
		// opens the window, whichever acks before it were lost; one that
		// does not (a duplicate, or one a round has since settled) is
		// skipped.
		v, err := d.c.RecvPatient(r, streamAckTag, d.c.OpTimeout(), ftMaxExtensions)
		if err != nil {
			return err
		}
		if n, _ := v.(int); n > p.acked {
			p.acked = n
		}
	}
	if err := d.c.Send(r, streamShardTag, streamShard{Reads: batch}); err != nil {
		return err
	}
	p.sent++
	p.reads += int64(len(batch))
	if d.held += int64(len(batch)); d.held > d.peak {
		d.peak = d.held
	}
	if d.c.OpTimeout() > 0 {
		p.ledger = append(p.ledger, batch)
	}
	return nil
}

// drop takes rank r out of the rotation over cause and queues its
// ledger for re-dealing. A cause that is not the loss of the rank, or
// a run that keeps no ledgers, gets the cause back as the run's error.
func (d *dealer) drop(r int, cause error) error {
	if d.c.OpTimeout() <= 0 || !(isCommLoss(cause) || errors.Is(cause, errLedgerMismatch)) {
		return cause
	}
	p := &d.peers[r]
	d.redeal = append(d.redeal, p.ledger...)
	d.held -= p.reads
	*p = peer{lost: true}
	d.total.LostRanks = UnionRanks(d.total.LostRanks, []int{r})
	return nil
}

// round brings rank 0's accumulator up to the cluster-wide state of
// every read dealt so far, then runs the due subscribers on it. A
// collection that lost a rank leaves that rank's ledger to re-deal, so
// it repeats until one collects from every rank it asked.
func (d *dealer) round(due []int) error {
	if reg := d.cfg.Metrics; reg != nil {
		// One of the collectives the benchmark sums as cluster.coll_s.
		defer reg.StartTimer("comm.coll.round.seconds")()
	}
	for {
		for len(d.redeal) > 0 {
			batch, err := d.nextBatch()
			if err == nil {
				err = d.deal(batch)
			}
			if err != nil {
				return err
			}
		}
		if err := d.collect(); err != nil {
			return err
		}
		if len(d.redeal) == 0 {
			break
		}
	}
	return d.cad.run(due, &Barrier{Consumed: d.dealt, Stats: d.total, acc: d.acc})
}

// collect is one marker/payload exchange: marker to every live rank,
// barrier through the local pipeline, then every live rank's payload
// folded into rank 0's accumulator — the one place accumulator state
// crosses ranks.
func (d *dealer) collect() error {
	d.seq++
	for r := 1; r < len(d.peers); r++ {
		if d.peers[r].lost {
			continue
		}
		if err := d.c.Send(r, streamShardTag, streamShard{Round: d.seq}); err != nil {
			if err := d.drop(r, err); err != nil {
				return err
			}
		}
	}
	own, err := d.pipe.quiesce()
	if err != nil {
		return err
	}
	d.total.Add(own.Stats)
	for r := 1; r < len(d.peers); r++ {
		p := &d.peers[r]
		if p.lost {
			continue
		}
		pl, err := d.recvPayload(r)
		if err == nil && pl.Stats.Mapped+pl.Stats.Unmapped != p.reads {
			err = fmt.Errorf("rank %d accounts for %d reads of %d dealt: %w", r, pl.Stats.Mapped+pl.Stats.Unmapped, p.reads, errLedgerMismatch)
		}
		if err != nil {
			if err := d.drop(r, err); err != nil {
				return err
			}
			continue
		}
		if err := mergeStateInto(d.acc, pl.State); err != nil {
			return err
		}
		d.total.Add(pl.Stats)
		d.held -= p.reads
		// A quiesced rank has taken everything it was sent.
		p.reads, p.ledger, p.acked = 0, nil, p.sent
	}
	return nil
}

// recvPayload waits for rank r's payload of the current round,
// discarding duplicated or delayed payloads of earlier ones.
func (d *dealer) recvPayload(r int) (roundPayload, error) {
	for {
		v, err := d.c.RecvPatient(r, streamRoundTag, d.c.OpTimeout(), ftMaxExtensions)
		if err != nil {
			return roundPayload{}, err
		}
		pl, ok := v.(roundPayload)
		if !ok {
			return roundPayload{}, fmt.Errorf("core: rank %d sent round payload %T", r, v)
		}
		if pl.Round == d.seq {
			return pl, nil
		}
	}
}

// mergeStateInto deserializes a peer's accumulator state into a scratch
// accumulator of dst's layout and merges it into dst.
func mergeStateInto(dst genome.Accumulator, state []byte) error {
	tmp, err := genome.CloneEmpty(dst)
	if err != nil {
		return err
	}
	if err := tmp.LoadStateBytes(state); err != nil {
		return err
	}
	return dst.Merge(tmp)
}

// isCommLoss classifies errors that mean "the peer is gone or
// unreachable" — grounds for reassignment rather than abort.
func isCommLoss(err error) bool {
	return errors.Is(err, cluster.ErrTimeout) ||
		errors.Is(err, cluster.ErrRankDead) ||
		errors.Is(err, cluster.ErrCrashed) ||
		errors.Is(err, cluster.ErrClosed)
}

// streamReceive is a worker rank's half: receive batches, feed the
// local pipeline, ack each batch (cumulatively) to open the next credit;
// on a round marker quiesce the pipeline and ship its payload; on Done
// return the global stats.
func streamReceive(c *cluster.Comm, pipe *localPipe) (Stats, error) {
	// Returning on an error tears down the transport, which unblocks
	// rank 0.
	defer pipe.finish()
	taken := 0 // batches fed so far: what every ack reports
	for {
		v, err := c.RecvPatient(0, streamShardTag, c.OpTimeout(), workerPatience)
		if err != nil {
			return Stats{}, fmt.Errorf("rank %d: await rank 0: %w", c.Rank(), err)
		}
		sh, ok := v.(streamShard)
		switch {
		case !ok:
			return Stats{}, fmt.Errorf("core: rank %d: unexpected stream payload %T", c.Rank(), v)
		case sh.Done:
			// The farewell stops rank 0 re-sending Done. Its error is
			// moot: rank 0 stops waiting once this rank goes quiet.
			_ = c.Send(0, streamAckTag, farewell)
			return sh.Stats, pipe.finish()
		case sh.Round > 0:
			pl, err := pipe.quiesce()
			if err != nil {
				return Stats{}, err
			}
			pl.Round = sh.Round
			if err := c.Send(0, streamRoundTag, pl); err != nil {
				return Stats{}, err
			}
		default:
			if err := pipe.feed(sh.Reads); err != nil {
				return Stats{}, err
			}
			taken++
			if err := c.Send(0, streamAckTag, taken); err != nil {
				return Stats{}, err
			}
		}
	}
}
