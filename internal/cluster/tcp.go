package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// defaultMaxFrame bounds a single TCP message; genome-state reductions
// on laptop-scale references fit comfortably, and anything larger is
// almost certainly a corrupt length prefix — the reader rejects it
// instead of allocating unbounded memory.
const defaultMaxFrame = 1 << 30

// Defaults for dial hardening: transient listen/accept races on a busy
// host resolve well within a few backoff rounds.
const (
	defaultDialAttempts = 5
	defaultDialBackoff  = 20 * time.Millisecond
)

// TCPConfig tunes transport hardening. The zero value picks safe
// defaults (5 dial attempts with 20 ms exponential backoff + jitter,
// 1 GiB max frame, no idle read deadline).
type TCPConfig struct {
	// DialAttempts is the number of connection attempts per peer
	// before giving up (0 = default 5).
	DialAttempts int
	// DialBackoff is the base backoff between attempts; attempt i
	// sleeps DialBackoff<<i plus up to DialBackoff of jitter
	// (0 = default 20 ms).
	DialBackoff time.Duration
	// ReadTimeout, when > 0, is applied as a read deadline on every
	// frame read. An idle timeout (no bytes arrived) keeps the reader
	// polling; a mid-frame stall tears the connection down.
	ReadTimeout time.Duration
	// MaxFrame bounds one message's payload (0 = default 1 GiB).
	// Length prefixes above it are treated as corruption.
	MaxFrame int
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.DialAttempts <= 0 {
		c.DialAttempts = defaultDialAttempts
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = defaultDialBackoff
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = defaultMaxFrame
	}
	return c
}

// TCPTransport connects size ranks over loopback TCP with a full mesh
// of connections. Each rank owns one endpoint per peer: rank i's
// traffic to rank j is written on endpoint[i][j] and arrives at rank
// j's endpoint[j][i]. Frames are length-prefixed:
//
//	uint32 from | uint32 tag (two's complement) | uint32 len | len bytes
//
// A reader goroutine per endpoint routes inbound frames to the owning
// rank's inbox channel.
type TCPTransport struct {
	size    int
	cfg     TCPConfig
	inboxes []chan packet
	// endpoint[i][j] is the conn rank i uses to reach rank j.
	endpoint [][]net.Conn
	sendMu   [][]sync.Mutex
	closed   chan struct{}
	once     sync.Once
	wg       sync.WaitGroup
}

// NewTCPTransportConfig builds the full mesh on 127.0.0.1 ephemeral
// ports with the given hardening knobs (zero value = defaults).
func NewTCPTransportConfig(size int, cfg TCPConfig) (*TCPTransport, error) {
	if size <= 0 {
		return nil, fmt.Errorf("cluster: tcp size %d", size)
	}
	t := &TCPTransport{
		size:     size,
		cfg:      cfg.withDefaults(),
		inboxes:  make([]chan packet, size),
		endpoint: make([][]net.Conn, size),
		sendMu:   make([][]sync.Mutex, size),
		closed:   make(chan struct{}),
	}
	for i := 0; i < size; i++ {
		t.inboxes[i] = make(chan packet, inboxDepth)
		t.endpoint[i] = make([]net.Conn, size)
		t.sendMu[i] = make([]sync.Mutex, size)
	}
	if size == 1 {
		return t, nil
	}
	// One listener per rank; every higher rank dials every lower rank
	// and announces itself with a 4-byte rank header.
	listeners := make([]net.Listener, size)
	for i := 0; i < size; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners {
				if l != nil {
					l.Close()
				}
			}
			return nil, fmt.Errorf("cluster: listen: %w", err)
		}
		listeners[i] = ln
	}
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()

	var mu sync.Mutex
	var firstErr error
	record := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	// Acceptors: rank j accepts size-1-j connections (from ranks > j).
	for j := 0; j < size-1; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for k := 0; k < size-1-j; k++ {
				conn, err := listeners[j].Accept()
				if err != nil {
					record(fmt.Errorf("cluster: accept at rank %d: %w", j, err))
					return
				}
				var hdr [4]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					record(fmt.Errorf("cluster: handshake at rank %d: %w", j, err))
					return
				}
				peer := int(binary.BigEndian.Uint32(hdr[:]))
				if peer <= j || peer >= size {
					record(fmt.Errorf("cluster: bogus handshake rank %d at %d", peer, j))
					return
				}
				mu.Lock()
				t.endpoint[j][peer] = conn
				mu.Unlock()
			}
		}(j)
	}
	// Dialers: rank i dials every lower rank j, retrying with backoff.
	for i := 1; i < size; i++ {
		for j := 0; j < i; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				conn, err := dialRetry(listeners[j].Addr().String(), t.cfg.DialAttempts, t.cfg.DialBackoff)
				if err != nil {
					record(fmt.Errorf("cluster: dial %d->%d: %w", i, j, err))
					return
				}
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], uint32(i))
				if _, err := conn.Write(hdr[:]); err != nil {
					record(fmt.Errorf("cluster: handshake %d->%d: %w", i, j, err))
					return
				}
				mu.Lock()
				t.endpoint[i][j] = conn
				mu.Unlock()
			}(i, j)
		}
	}
	wg.Wait()
	if firstErr != nil {
		t.Close()
		return nil, firstErr
	}
	for a := 0; a < size; a++ {
		for b := 0; b < size; b++ {
			if a != b && t.endpoint[a][b] == nil {
				t.Close()
				return nil, fmt.Errorf("cluster: mesh incomplete at (%d,%d)", a, b)
			}
		}
	}
	// One reader per endpoint: everything read there belongs to rank a.
	for a := 0; a < size; a++ {
		for b := 0; b < size; b++ {
			if a == b {
				continue
			}
			t.wg.Add(1)
			go t.readLoop(t.endpoint[a][b], a)
		}
	}
	return t, nil
}

// dialRetry dials addr up to attempts times with exponential backoff
// plus jitter.
func dialRetry(addr string, attempts int, backoff time.Duration) (net.Conn, error) {
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			sleep := backoff<<(a-1) + time.Duration(rand.Int63n(int64(backoff)))
			time.Sleep(sleep)
		}
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("cluster: dial %s failed after %d attempts: %w", addr, attempts, lastErr)
}

// parseFrameHeader decodes the 12-byte frame header and validates the
// length against limit; a prefix above limit is treated as corruption.
func parseFrameHeader(hdr []byte, limit int) (from, tag int, n uint32, err error) {
	from = int(int32(binary.BigEndian.Uint32(hdr[0:4])))
	tag = int(int32(binary.BigEndian.Uint32(hdr[4:8])))
	n = binary.BigEndian.Uint32(hdr[8:12])
	if int64(n) > int64(limit) {
		return 0, 0, 0, fmt.Errorf("cluster: frame of %d bytes (limit %d): %w", n, limit, ErrFrameTooLarge)
	}
	return from, tag, n, nil
}

// isTimeout reports whether err is a network read/write deadline miss.
func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// readLoop parses frames arriving at owner's endpoint and delivers them
// to owner's inbox.
func (t *TCPTransport) readLoop(conn net.Conn, owner int) {
	defer t.wg.Done()
	for {
		if t.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(t.cfg.ReadTimeout))
		}
		var hdr [12]byte
		if n, err := io.ReadFull(conn, hdr[:]); err != nil {
			// An idle deadline miss (no bytes at all) is just a quiet
			// link: keep polling unless we are shutting down. A partial
			// header or any other error means the stream is broken.
			if n == 0 && isTimeout(err) {
				select {
				case <-t.closed:
					return
				default:
					continue
				}
			}
			return
		}
		from, tag, n, err := parseFrameHeader(hdr[:], t.cfg.MaxFrame)
		if err != nil {
			return
		}
		data := make([]byte, n)
		if t.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(t.cfg.ReadTimeout))
		}
		if _, err := io.ReadFull(conn, data); err != nil {
			return
		}
		select {
		case t.inboxes[owner] <- packet{From: from, Tag: tag, Data: data}:
		case <-t.closed:
			return
		}
	}
}

// Send implements Transport. With timeout > 0 the socket writes run
// under a write deadline.
func (t *TCPTransport) Send(from, to int, p packet, timeout time.Duration) error {
	if to < 0 || to >= t.size || from < 0 || from >= t.size || from == to {
		return fmt.Errorf("cluster: tcp send %d->%d of %d", from, to, t.size)
	}
	if len(p.Data) > t.cfg.MaxFrame {
		return fmt.Errorf("cluster: send of %d bytes (limit %d): %w", len(p.Data), t.cfg.MaxFrame, ErrFrameTooLarge)
	}
	select {
	case <-t.closed:
		return ErrClosed
	default:
	}
	conn := t.endpoint[from][to]
	if conn == nil {
		return fmt.Errorf("cluster: no connection %d->%d", from, to)
	}
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(int32(p.From)))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(int32(p.Tag)))
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(p.Data)))
	t.sendMu[from][to].Lock()
	defer t.sendMu[from][to].Unlock()
	if timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(timeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	if _, err := conn.Write(hdr[:]); err != nil {
		if isTimeout(err) {
			return fmt.Errorf("cluster: tcp write: %w", ErrTimeout)
		}
		return fmt.Errorf("cluster: tcp write: %w", err)
	}
	if _, err := conn.Write(p.Data); err != nil {
		if isTimeout(err) {
			return fmt.Errorf("cluster: tcp write: %w", ErrTimeout)
		}
		return fmt.Errorf("cluster: tcp write: %w", err)
	}
	return nil
}

// Inbox implements Transport.
func (t *TCPTransport) Inbox(rank int) <-chan packet { return t.inboxes[rank] }

// Done implements Transport.
func (t *TCPTransport) Done() <-chan struct{} { return t.closed }

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.once.Do(func() {
		close(t.closed)
		for a := range t.endpoint {
			for b := range t.endpoint[a] {
				if c := t.endpoint[a][b]; c != nil {
					c.Close()
				}
			}
		}
		t.wg.Wait()
		for _, ch := range t.inboxes {
			close(ch)
		}
	})
	return nil
}
