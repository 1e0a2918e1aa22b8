package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

func TestParseFrameHeader(t *testing.T) {
	hdr := make([]byte, 12)
	binary.BigEndian.PutUint32(hdr[0:4], 3)
	negTag := int32(-7) // collective tags are negative
	binary.BigEndian.PutUint32(hdr[4:8], uint32(negTag))
	binary.BigEndian.PutUint32(hdr[8:12], 512)
	from, tag, n, err := parseFrameHeader(hdr, 1024)
	if err != nil || from != 3 || tag != -7 || n != 512 {
		t.Fatalf("got from=%d tag=%d n=%d err=%v", from, tag, n, err)
	}
	// A corrupt length prefix past the limit is rejected, not allocated.
	binary.BigEndian.PutUint32(hdr[8:12], 4<<20)
	if _, _, _, err := parseFrameHeader(hdr, 1024); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
}

func TestDialRetryDeadPort(t *testing.T) {
	// Grab a port and close it so nothing is listening there.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	start := time.Now()
	_, err = dialRetry(addr, 3, time.Millisecond)
	if err == nil {
		t.Fatal("dial to dead port succeeded")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error %q does not report 3 attempts", err)
	}
	// Backoff 1ms<<0 + 1ms<<1 plus jitter — at least 3ms, well under a
	// second.
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond || elapsed > time.Second {
		t.Errorf("retry loop took %v", elapsed)
	}
}

func TestDialRetryEventualSuccess(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	// Re-listen on the same port shortly after the first attempt fails.
	go func() {
		time.Sleep(20 * time.Millisecond)
		if l2, err := net.Listen("tcp", addr); err == nil {
			defer l2.Close()
			if c, err := l2.Accept(); err == nil {
				c.Close()
			}
		}
	}()
	start := time.Now()
	conn, err := dialRetry(addr, 6, 10*time.Millisecond)
	if err != nil {
		t.Skipf("port %s not rebindable in time: %v", addr, err) // scheduling-dependent
	}
	conn.Close()
	// The listener comes back after 20ms, so the first attempt failed and
	// a retry (10ms backoff or more) connected.
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("connected after %v, before any retry", elapsed)
	}
}

func TestTCPSendRejectsOversizedFrame(t *testing.T) {
	tr, err := NewTCPTransportConfig(2, TCPConfig{MaxFrame: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	big := packet{From: 0, Tag: 1, Data: make([]byte, 4096)}
	if err := tr.Send(0, 1, big, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized send: got %v, want ErrFrameTooLarge", err)
	}
	// Small frames still flow.
	small := packet{From: 0, Tag: 1, Data: []byte("ok")}
	if err := tr.Send(0, 1, small, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-tr.Inbox(1):
		if string(p.Data) != "ok" {
			t.Errorf("got %q", p.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("small frame never arrived")
	}
}

// TestTCPIdleReadTimeoutKeepsConnection: the per-frame read deadline
// exists to detect dead peers, not to kill idle-but-healthy links.
func TestTCPIdleReadTimeoutKeepsConnection(t *testing.T) {
	tr, err := NewTCPTransportConfig(2, TCPConfig{ReadTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	time.Sleep(80 * time.Millisecond) // several idle deadline expiries
	if err := tr.Send(0, 1, packet{From: 0, Tag: 2, Data: []byte("after idle")}, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-tr.Inbox(1):
		if string(p.Data) != "after idle" {
			t.Errorf("got %q", p.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame lost after idle period — read deadline killed the link")
	}
}

func TestTCPRunWithHardening(t *testing.T) {
	rc := RunConfig{
		Kind:      TCP,
		OpTimeout: 2 * time.Second,
		TCP:       TCPConfig{ReadTimeout: 50 * time.Millisecond, MaxFrame: 1 << 20},
	}
	err := RunWithConfig(3, rc, func(c *Comm) error {
		if sum, err := gatherSum(c, float64(c.Rank()+1)); err != nil || sum != 6 {
			return fmt.Errorf("gather+broadcast under hardened TCP = %v, %v", sum, err)
		}
		return meet(c)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankErrorMessageFormat(t *testing.T) {
	msg := rankErr(2, "gather", ErrTimeout).Error()
	for _, want := range []string{"rank 2", "gather", "timed out"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}
