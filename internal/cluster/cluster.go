// Package cluster is the message-passing substrate standing in for MPI
// (paper §VI Step 1). It provides rank-addressed point-to-point
// messaging plus the collectives GNUMAP-SNP's two parallel modes need
// (Broadcast, Gather), over two interchangeable transports:
//
//   - ChannelTransport: goroutine "nodes" exchanging serialized
//     messages over Go channels — the default for experiments.
//   - TCPTransport: the same node program communicating over real
//     loopback TCP sockets with length-framed messages, exercising a
//     genuine network stack (serialization, framing, kernel buffers).
//
// Payloads are gob-serialized in both transports, so the communication
// volume — the quantity that differentiates the paper's read-split and
// genome-split modes — is identical across transports. Common payload
// types are registered in init; callers register their own structs with
// gob.Register.
//
// The programming model is SPMD, as with MPI: Run launches one copy of
// the node function per rank, and every rank must execute the same
// sequence of collective operations.
//
// # Fault tolerance
//
// RunWithConfig layers a fault model on top: an op timeout turns every
// blocking Send/Recv/collective into a bounded wait that fails with a
// typed *RankError instead of deadlocking; a heartbeat interval starts
// a per-rank heartbeater feeding a last-seen failure detector
// (Alive/DeadRanks); and a FaultConfig wraps the transport in a seeded
// FaultTransport injecting drops, duplicates, delays, reorders, and
// rank crashes. A node function returning an error wrapping ErrCrashed
// is treated as a simulated process death: the run continues without it
// rather than tearing the transport down, so coordinators can detect
// the loss and degrade gracefully.
package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gnumap/internal/obs"
)

func init() {
	gob.Register([]float64{})
	gob.Register([]float32{})
	gob.Register([]int{})
	gob.Register([]int32{})
	gob.Register([5]float64{})
	gob.Register([][5]float64{})
	gob.Register(map[int]float64{})
	gob.Register("")
	gob.Register(0)
	gob.Register(int64(0))
	gob.Register(0.0)
	gob.Register(false)
}

// packet is the wire unit.
type packet struct {
	From int
	Tag  int
	Data []byte
}

// hbTag marks heartbeat packets. It sits far below any collective tag
// (collectives count down from -1) so the two can never collide; recv
// consumes heartbeats as liveness evidence instead of queueing them.
const hbTag = -1 << 30

// maxPending bounds the out-of-order pending queue; beyond it the
// receiver is matching against tags that will never arrive (or a
// duplication storm is underway) and failing beats exhausting memory.
const maxPending = 1 << 16

// Transport moves packets between ranks.
type Transport interface {
	// Send delivers a packet from rank `from` to rank `to`. It may
	// block for backpressure but must not drop packets (fault-injecting
	// decorators excepted). A timeout > 0 bounds the blocking; 0 means
	// wait indefinitely.
	Send(from, to int, p packet, timeout time.Duration) error
	// Inbox returns the receive channel of a rank.
	Inbox(rank int) <-chan packet
	// Done is closed when the transport shuts down; receivers select
	// on it alongside their inbox. Inboxes with concurrent senders
	// cannot be closed safely, so shutdown is signalled here instead.
	Done() <-chan struct{}
	// Close tears the transport down, unblocking all receivers.
	Close() error
}

// Comm is one rank's endpoint, analogous to an MPI communicator.
type Comm struct {
	rank, size int
	tr         Transport
	// pending holds packets received while waiting for a different
	// (from, tag) match.
	pending []packet
	// collSeq numbers collective operations so that consecutive
	// collectives cannot cross-match; SPMD execution keeps it in sync
	// across ranks.
	collSeq int

	// opTimeout bounds every blocking operation (0 = wait forever).
	opTimeout time.Duration
	// hbInterval is the heartbeat period (0 = no failure detection).
	hbInterval time.Duration
	// lastSeen[r] is the unix-nano arrival time of the latest packet
	// from rank r (heartbeat or data). Written from the recv path and
	// the heartbeater's start; atomic for safety.
	lastSeen []atomic.Int64
	hbStop   chan struct{}
	hbDone   chan struct{}

	// met holds the observability handles installed by SetMetrics (nil
	// = instrumentation off; the messaging paths pay one atomic load).
	// Atomic because the heartbeater, started before the node function
	// can call SetMetrics, reads it too.
	met atomic.Pointer[commMetrics]
}

// commMetrics pre-resolves the per-event handles (hot path) and keeps
// the registry for the per-collective timers (cold path).
type commMetrics struct {
	reg       *obs.Registry
	sendSec   *obs.Histogram
	recvSec   *obs.Histogram
	sendBytes *obs.Counter
	recvBytes *obs.Counter
	sendCount *obs.Counter
	recvCount *obs.Counter
	retries   *obs.Counter
	timeouts  *obs.Counter
	hbSent    *obs.Counter
	hbSeen    *obs.Counter
}

// SetMetrics installs a metrics registry on this endpoint, the one
// place its communication is counted. Point-to-point traffic records
// comm.send.seconds / comm.recv.seconds latency histograms and
// comm.send.bytes / comm.recv.bytes / comm.send.count / comm.recv.count
// counters (data packets; heartbeats count as comm.heartbeats.sent /
// comm.heartbeats.seen); comm.retries counts deadline extensions granted
// to a peer whose heartbeats showed it alive, comm.timeouts operations
// that failed with ErrTimeout; each collective records a wall-time
// histogram comm.coll.<name>.seconds. Pass nil to disable.
func (c *Comm) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		c.met.Store(nil)
		return
	}
	c.met.Store(&commMetrics{
		reg:       reg,
		sendSec:   reg.Timer("comm.send.seconds"),
		recvSec:   reg.Timer("comm.recv.seconds"),
		sendBytes: reg.Counter("comm.send.bytes"),
		recvBytes: reg.Counter("comm.recv.bytes"),
		sendCount: reg.Counter("comm.send.count"),
		recvCount: reg.Counter("comm.recv.count"),
		retries:   reg.Counter("comm.retries"),
		timeouts:  reg.Counter("comm.timeouts"),
		hbSent:    reg.Counter("comm.heartbeats.sent"),
		hbSeen:    reg.Counter("comm.heartbeats.seen"),
	})
}

// collTimer returns a stop func timing one collective (no-op when
// instrumentation is off). Collectives are per-batch, not per-message,
// so the registry lookup here is off the hot path.
func (c *Comm) collTimer(name string) func() {
	m := c.met.Load()
	if m == nil {
		return func() {}
	}
	return m.reg.StartTimer("comm.coll." + name + ".seconds")
}

// newComm builds a rank endpoint with the run's fault-model settings.
func newComm(rank, size int, tr Transport, opTimeout, hbInterval time.Duration) *Comm {
	c := &Comm{
		rank: rank, size: size, tr: tr,
		opTimeout:  opTimeout,
		hbInterval: hbInterval,
		lastSeen:   make([]atomic.Int64, size),
	}
	now := time.Now().UnixNano()
	for r := range c.lastSeen {
		c.lastSeen[r].Store(now)
	}
	return c
}

// Rank returns this node's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// OpTimeout returns the configured per-operation deadline (0 = none).
func (c *Comm) OpTimeout() time.Duration { return c.opTimeout }

// noteSeen records liveness evidence from rank r.
func (c *Comm) noteSeen(r int) {
	if r >= 0 && r < c.size {
		c.lastSeen[r].Store(time.Now().UnixNano())
	}
}

// Alive reports whether rank r's heartbeats (or any traffic) have been
// seen recently. Without a heartbeat interval there is no evidence
// either way and every rank is presumed alive.
func (c *Comm) Alive(r int) bool {
	if c.hbInterval <= 0 || r == c.rank {
		return true
	}
	staleAfter := 4 * c.hbInterval
	return time.Now().UnixNano()-c.lastSeen[r].Load() < int64(staleAfter)
}

// DeadRanks lists peers the failure detector currently considers dead.
func (c *Comm) DeadRanks() []int {
	var dead []int
	for r := 0; r < c.size; r++ {
		if r != c.rank && !c.Alive(r) {
			dead = append(dead, r)
		}
	}
	return dead
}

// startHeartbeat launches the heartbeater; stopHeartbeat must be called
// before the node function returns.
func (c *Comm) startHeartbeat() {
	if c.hbInterval <= 0 || c.size == 1 {
		return
	}
	c.hbStop = make(chan struct{})
	c.hbDone = make(chan struct{})
	go func() {
		defer close(c.hbDone)
		ticker := time.NewTicker(c.hbInterval)
		defer ticker.Stop()
		for {
			select {
			case <-c.hbStop:
				return
			case <-ticker.C:
				for r := 0; r < c.size; r++ {
					if r == c.rank {
						continue
					}
					// Failures here are the failure detector's business,
					// not ours: a dead link shows up as missed beats at
					// the peer.
					if c.tr.Send(c.rank, r, packet{From: c.rank, Tag: hbTag}, c.hbInterval) != nil {
						continue
					}
					if m := c.met.Load(); m != nil {
						m.hbSent.Inc()
					}
				}
			}
		}
	}()
}

// stopHeartbeat halts the heartbeater and waits it out.
func (c *Comm) stopHeartbeat() {
	if c.hbStop != nil {
		close(c.hbStop)
		<-c.hbDone
		c.hbStop = nil
	}
}

// encode gob-serializes a payload (as interface, so concrete type
// information travels with it).
func encode(payload any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&payload); err != nil {
		return nil, fmt.Errorf("cluster: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// decode reverses encode.
func decode(data []byte) (any, error) {
	var payload any
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&payload); err != nil {
		return nil, fmt.Errorf("cluster: decode: %w", err)
	}
	return payload, nil
}

// Send transmits payload to rank `to` with a non-negative user tag.
func (c *Comm) Send(to, tag int, payload any) error {
	if tag < 0 {
		return fmt.Errorf("cluster: negative tags are reserved for collectives")
	}
	return c.send(to, tag, payload, "send")
}

func (c *Comm) send(to, tag int, payload any, op string) error {
	if to < 0 || to >= c.size {
		return fmt.Errorf("cluster: send to rank %d of %d", to, c.size)
	}
	if to == c.rank {
		return fmt.Errorf("cluster: rank %d sending to itself", c.rank)
	}
	m := c.met.Load()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	data, err := encode(payload)
	if err != nil {
		return rankErr(to, op, err)
	}
	if err := c.tr.Send(c.rank, to, packet{From: c.rank, Tag: tag, Data: data}, c.opTimeout); err != nil {
		if m != nil && errors.Is(err, ErrTimeout) {
			m.timeouts.Inc()
		}
		return rankErr(to, op, err)
	}
	if m != nil {
		m.sendSec.ObserveDuration(time.Since(t0))
		m.sendBytes.Add(int64(len(data)))
		m.sendCount.Inc()
	}
	return nil
}

// Recv blocks until a message with the given sender and non-negative
// user tag arrives and returns its payload. With an op timeout
// configured, waiting is bounded and failure is a *RankError wrapping
// ErrTimeout.
func (c *Comm) Recv(from, tag int) (any, error) {
	if tag < 0 {
		return nil, fmt.Errorf("cluster: negative tags are reserved for collectives")
	}
	return c.recv(from, tag, "recv")
}

func (c *Comm) recv(from, tag int, op string) (any, error) {
	return c.recvTimeout(from, tag, c.opTimeout, op)
}

// localCrashed reports whether fault injection has killed this rank:
// a dead process can neither send nor receive.
func (c *Comm) localCrashed() bool {
	if cc, ok := c.tr.(interface{ LocalCrashed(rank int) bool }); ok {
		return cc.LocalCrashed(c.rank)
	}
	return false
}

// recvTimeout is the matching engine behind every receive: scan the
// pending queue, then drain the inbox — consuming heartbeats as
// liveness evidence, queueing non-matching packets (bounded), and
// returning a typed error on deadline or teardown.
func (c *Comm) recvTimeout(from, tag int, timeout time.Duration, op string) (any, error) {
	if from < 0 || from >= c.size {
		return nil, fmt.Errorf("cluster: recv from rank %d of %d", from, c.size)
	}
	if c.localCrashed() {
		return nil, rankErr(c.rank, op, ErrCrashed)
	}
	m := c.met.Load()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	for i, p := range c.pending {
		if p.From == from && p.Tag == tag {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			m.noteRecv(t0, len(p.Data))
			v, err := decode(p.Data)
			return v, rankErr(from, op, err)
		}
	}
	var timeoutCh <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	inbox := c.tr.Inbox(c.rank)
	done := c.tr.Done()
	for {
		select {
		case <-done:
			return nil, rankErr(from, op, ErrClosed)
		case p, ok := <-inbox:
			if !ok {
				return nil, rankErr(from, op, ErrClosed)
			}
			c.noteSeen(p.From)
			if p.Tag == hbTag {
				if m != nil {
					m.hbSeen.Inc()
				}
				continue
			}
			if p.From == from && p.Tag == tag {
				m.noteRecv(t0, len(p.Data))
				v, err := decode(p.Data)
				return v, rankErr(from, op, err)
			}
			if len(c.pending) >= maxPending {
				return nil, rankErr(from, op, ErrPendingOverflow)
			}
			c.pending = append(c.pending, p)
		case <-timeoutCh:
			if c.localCrashed() {
				return nil, rankErr(c.rank, op, ErrCrashed)
			}
			if m != nil {
				m.timeouts.Inc()
			}
			return nil, rankErr(from, op, ErrTimeout)
		}
	}
}

// noteRecv records one matched receive (latency from recv entry to
// match, plus payload size); m may be nil.
func (m *commMetrics) noteRecv(t0 time.Time, nbytes int) {
	if m == nil {
		return
	}
	m.recvSec.ObserveDuration(time.Since(t0))
	m.recvBytes.Add(int64(nbytes))
	m.recvCount.Inc()
}

// RecvPatient is Recv with an explicit deadline that, when heartbeats
// are enabled, extends the deadline as long as the peer's heartbeats keep
// arriving (a slow rank is not a dead rank), up to maxExtensions extra
// rounds. On giving up it reports ErrRankDead if the detector agrees
// the peer is gone, ErrTimeout otherwise.
func (c *Comm) RecvPatient(from, tag int, timeout time.Duration, maxExtensions int) (any, error) {
	if timeout <= 0 {
		return c.recvTimeout(from, tag, 0, "recv")
	}
	for ext := 0; ; ext++ {
		v, err := c.recvTimeout(from, tag, timeout, "recv")
		if err == nil || !errors.Is(err, ErrTimeout) {
			return v, err
		}
		if c.hbInterval > 0 && c.Alive(from) && ext < maxExtensions {
			if m := c.met.Load(); m != nil {
				m.retries.Inc()
			}
			continue
		}
		if c.hbInterval > 0 && !c.Alive(from) {
			return nil, rankErr(from, "recv", ErrRankDead)
		}
		return nil, err
	}
}

// nextCollTag reserves a fresh negative tag for one collective phase.
func (c *Comm) nextCollTag() int {
	c.collSeq++
	return -c.collSeq
}

// Broadcast distributes root's payload to every rank; every rank
// returns the (decoded) value. Non-root ranks may pass nil.
func (c *Comm) Broadcast(root int, payload any) (any, error) {
	defer c.collTimer("broadcast")()
	tag := c.nextCollTag()
	if root < 0 || root >= c.size {
		return nil, fmt.Errorf("cluster: broadcast root %d of %d", root, c.size)
	}
	if c.size == 1 {
		return payload, nil
	}
	if c.rank == root {
		for r := 0; r < c.size; r++ {
			if r == root {
				continue
			}
			if err := c.send(r, tag, payload, "broadcast"); err != nil {
				return nil, err
			}
		}
		return payload, nil
	}
	return c.recv(root, tag, "broadcast")
}

// Gather collects every rank's payload at root. At root the returned
// slice is indexed by rank; elsewhere it is nil.
func (c *Comm) Gather(root int, payload any) ([]any, error) {
	defer c.collTimer("gather")()
	tag := c.nextCollTag()
	if root < 0 || root >= c.size {
		return nil, fmt.Errorf("cluster: gather root %d of %d", root, c.size)
	}
	if c.rank == root {
		out := make([]any, c.size)
		out[c.rank] = payload
		for r := 0; r < c.size; r++ {
			if r == root {
				continue
			}
			v, err := c.recv(r, tag, "gather")
			if err != nil {
				return nil, err
			}
			out[r] = v
		}
		return out, nil
	}
	return nil, c.send(root, tag, payload, "gather")
}

// TransportKind selects the transport for Run.
type TransportKind int

const (
	// Channels runs nodes as goroutines exchanging messages in-process.
	Channels TransportKind = iota
	// TCP runs nodes as goroutines communicating over loopback sockets.
	TCP
)

// String names the transport kind.
func (k TransportKind) String() string {
	switch k {
	case Channels:
		return "channels"
	case TCP:
		return "tcp"
	default:
		return fmt.Sprintf("TransportKind(%d)", int(k))
	}
}

// RunConfig configures a cluster run's transport and fault model.
type RunConfig struct {
	// Kind selects the transport (Channels or TCP).
	Kind TransportKind
	// OpTimeout bounds every Send/Recv/collective (0 = block forever,
	// the historical behavior).
	OpTimeout time.Duration
	// Heartbeat, when > 0, starts a heartbeater per rank and enables
	// the Alive/DeadRanks failure detector.
	Heartbeat time.Duration
	// Fault, when non-nil, wraps the transport in a FaultTransport
	// injecting the configured chaos.
	Fault *FaultConfig
	// TCP tunes TCP-transport hardening (ignored for Channels).
	TCP TCPConfig
}

// Run launches size SPMD node functions and waits for them all. It
// returns the first error any node produced; when a node fails, the
// transport is torn down so the remaining nodes unblock with errors
// rather than deadlocking.
func Run(size int, kind TransportKind, fn func(c *Comm) error) error {
	return RunWithConfig(size, RunConfig{Kind: kind}, fn)
}

// RunWithConfig is Run with an explicit fault model. Node functions
// returning an error wrapping ErrCrashed are treated as simulated
// process deaths: they neither tear the transport down nor fail the
// run, so surviving ranks can detect the loss (deadlines, heartbeats)
// and complete degraded. Any other node error still aborts the run.
func RunWithConfig(size int, cfg RunConfig, fn func(c *Comm) error) error {
	if size <= 0 {
		return fmt.Errorf("cluster: size %d", size)
	}
	var tr Transport
	var err error
	switch cfg.Kind {
	case Channels:
		tr = NewChannelTransport(size)
	case TCP:
		tr, err = NewTCPTransportConfig(size, cfg.TCP)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("cluster: unknown transport %d", int(cfg.Kind))
	}
	if cfg.Fault != nil {
		f := *cfg.Fault
		tr = NewFaultTransport(tr, size, f)
		// A crashing rank with unbounded waits would deadlock the
		// survivors; injecting crashes forces a deadline.
		if f.CrashRank >= 0 && cfg.OpTimeout <= 0 {
			cfg.OpTimeout = 5 * time.Second
		}
	}
	defer tr.Close()

	errs := make([]error, size)
	crashed := make([]error, size)
	var wg sync.WaitGroup
	var closeOnce sync.Once
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm := newComm(rank, size, tr, cfg.OpTimeout, cfg.Heartbeat)
			comm.startHeartbeat()
			defer comm.stopHeartbeat()
			if err := fn(comm); err != nil {
				if errors.Is(err, ErrCrashed) {
					// Simulated process death: survivors detect and
					// degrade; do not tear the cluster down.
					crashed[rank] = err
					return
				}
				errs[rank] = err
				// Unblock peers waiting on this failed node.
				closeOnce.Do(func() { tr.Close() })
			}
		}(r)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
