package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gnumap/internal/obs"
)

// chaosOpTimeout is the deadline used across the chaos suite; bounds
// below are expressed in multiples of it.
const chaosOpTimeout = 300 * time.Millisecond

func TestRankErrorWrapping(t *testing.T) {
	err := rankErr(3, "gather", ErrTimeout)
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("not a RankError: %v", err)
	}
	if re.Rank != 3 || re.Op != "gather" {
		t.Errorf("context lost: %+v", re)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Error("cause lost")
	}
	// Re-wrapping keeps the innermost (closest to the wire) context.
	outer := rankErr(0, "barrier", err)
	if !errors.As(outer, &re) || re.Rank != 3 || re.Op != "gather" {
		t.Errorf("double wrap clobbered context: %v", outer)
	}
	if rankErr(1, "send", nil) != nil {
		t.Error("nil cause should wrap to nil")
	}
}

func TestParseFaultSpec(t *testing.T) {
	cfg, err := ParseFaultSpec("seed=42,drop=0.02,dup=0.01,reorder=0.1,delay=0.05,maxdelay=3ms,crash=2@100")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 42 || cfg.DropProb != 0.02 || cfg.DupProb != 0.01 ||
		cfg.ReorderProb != 0.1 || cfg.DelayProb != 0.05 ||
		cfg.MaxDelay != 3*time.Millisecond || cfg.CrashRank != 2 || cfg.CrashAfterSends != 100 {
		t.Errorf("parsed %+v", cfg)
	}
	if cfg, err := ParseFaultSpec("crash=1"); err != nil || cfg.CrashRank != 1 || cfg.CrashAfterSends != 0 {
		t.Errorf("bare crash: %+v %v", cfg, err)
	}
	for _, bad := range []string{"", "drop", "drop=2", "drop=-0.1", "nope=1", "drop=0.6,dup=0.6", "maxdelay=xyz", "crash=a"} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestFaultTransportDeterministic: the same seed over the same
// single-goroutine schedule injects exactly the same faults.
func TestFaultTransportDeterministic(t *testing.T) {
	inject := func(seed int64) (drops, dups, delays, reorders int64) {
		inner := NewChannelTransport(2)
		defer inner.Close()
		cfg := NewFaultConfig(seed)
		cfg.DropProb, cfg.DupProb, cfg.ReorderProb, cfg.DelayProb = 0.1, 0.1, 0.1, 0.1
		cfg.MaxDelay = 100 * time.Microsecond
		ft := NewFaultTransport(inner, 2, cfg)
		for i := 0; i < 500; i++ {
			if err := ft.Send(0, 1, packet{From: 0, Tag: 1}, 0); err != nil {
				t.Fatal(err)
			}
			// Drain to keep the inbox from filling.
			for len(inner.Inbox(1)) > 0 {
				<-inner.inboxes[1]
			}
		}
		return ft.Injected()
	}
	a1, b1, c1, d1 := inject(7)
	a2, b2, c2, d2 := inject(7)
	if a1 != a2 || b1 != b2 || c1 != c2 || d1 != d2 {
		t.Errorf("same seed diverged: (%d,%d,%d,%d) vs (%d,%d,%d,%d)", a1, b1, c1, d1, a2, b2, c2, d2)
	}
	if a1+b1+c1+d1 == 0 {
		t.Error("no faults injected at 40% total probability over 500 sends")
	}
}

// TestChaosLosslessFaultsStillComplete: duplication, reordering, and
// delays never lose data, so collectives must finish with correct
// results despite them.
func TestChaosLosslessFaultsStillComplete(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := NewFaultConfig(seed)
		cfg.DupProb, cfg.ReorderProb, cfg.DelayProb = 0.15, 0.15, 0.1
		cfg.MaxDelay = time.Millisecond
		rc := RunConfig{Kind: Channels, OpTimeout: chaosOpTimeout, Heartbeat: 20 * time.Millisecond, Fault: &cfg}
		err := RunWithConfig(4, rc, func(c *Comm) error {
			for round := 0; round < 8; round++ {
				if err := meet(c); err != nil {
					return fmt.Errorf("round %d meeting: %w", round, err)
				}
				got, err := gatherSum(c, 1)
				if err != nil {
					return fmt.Errorf("round %d gather+broadcast: %w", round, err)
				}
				if got != 4 {
					return fmt.Errorf("round %d gather+broadcast = %v", round, got)
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestChaosCollectivesCompleteOrFailInDeadline is the tentpole
// guarantee: under lossy chaos (drops included) every collective
// either completes or returns a typed *RankError, and never blocks
// past its deadline budget.
func TestChaosCollectivesCompleteOrFailInDeadline(t *testing.T) {
	const size = 4
	// A gather+broadcast is 2 phases; root waits size-1 recvs in the
	// first. Budget generously: every op timing out sequentially, plus scheduling.
	budget := time.Duration(2*size+2) * chaosOpTimeout
	for _, seed := range []int64{11, 12, 13, 14, 15} {
		cfg := NewFaultConfig(seed)
		cfg.DropProb = 0.08
		cfg.DupProb = 0.05
		cfg.ReorderProb = 0.05
		cfg.MaxDelay = time.Millisecond
		rc := RunConfig{Kind: Channels, OpTimeout: chaosOpTimeout, Heartbeat: 20 * time.Millisecond, Fault: &cfg}
		err := RunWithConfig(size, rc, func(c *Comm) error {
			for round := 0; round < 4; round++ {
				start := time.Now()
				_, err := gatherSum(c, float64(c.Rank()))
				elapsed := time.Since(start)
				if elapsed > budget {
					return fmt.Errorf("round %d blocked %v (> %v budget)", round, elapsed, budget)
				}
				if err != nil {
					var re *RankError
					if !errors.As(err, &re) {
						return fmt.Errorf("round %d: untyped error %v", round, err)
					}
					// Once a collective fails the SPMD tag sequence is
					// broken; stop cleanly.
					return nil
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestCrashedRankFailsFastAndPeersTimeOut: a crashed rank's operations
// fail with ErrCrashed; survivors waiting on it get ErrTimeout within
// the deadline; the run as a whole is not torn down by the crash.
func TestCrashedRankFailsFastAndPeersTimeOut(t *testing.T) {
	cfg := NewFaultConfig(1)
	cfg.CrashRank = 2
	rc := RunConfig{Kind: Channels, OpTimeout: 150 * time.Millisecond, Heartbeat: 10 * time.Millisecond, Fault: &cfg}
	start := time.Now()
	err := RunWithConfig(3, rc, func(c *Comm) error {
		err := meet(c)
		if c.Rank() == 2 {
			if !errors.Is(err, ErrCrashed) {
				return fmt.Errorf("crashed rank got %v, want ErrCrashed", err)
			}
			return err // simulated process death
		}
		if err == nil {
			return fmt.Errorf("rank %d: meeting succeeded despite dead peer", c.Rank())
		}
		var re *RankError
		if !errors.As(err, &re) || !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("rank %d: want RankError(ErrTimeout), got %v", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("crash handling took %v", elapsed)
	}
}

// TestHeartbeatFailureDetector: a crashed rank's heartbeats stop and
// the detector declares it dead while live ranks stay alive.
func TestHeartbeatFailureDetector(t *testing.T) {
	cfg := NewFaultConfig(1)
	cfg.CrashRank = 2
	rc := RunConfig{Kind: Channels, OpTimeout: 2 * time.Second, Heartbeat: 10 * time.Millisecond, Fault: &cfg}
	err := RunWithConfig(3, rc, func(c *Comm) error {
		reg := obs.NewRegistry()
		c.SetMetrics(reg)
		switch c.Rank() {
		case 0:
			// Rank 1 reports in after the detector has had time to see
			// heartbeats (rank 1) and miss them (rank 2); draining the
			// inbox while waiting is what feeds the detector.
			if _, err := c.RecvPatient(1, 5, 2*time.Second, 0); err != nil {
				return err
			}
			if !c.Alive(1) {
				return fmt.Errorf("live rank 1 declared dead")
			}
			if c.Alive(2) {
				return fmt.Errorf("crashed rank 2 still considered alive")
			}
			if d := c.DeadRanks(); len(d) != 1 || d[0] != 2 {
				return fmt.Errorf("DeadRanks = %v", d)
			}
			if reg.Counter("comm.heartbeats.seen").Value() == 0 {
				return fmt.Errorf("no heartbeats observed")
			}
			return nil
		case 1:
			time.Sleep(150 * time.Millisecond)
			return c.Send(0, 5, "alive")
		default:
			// Crashed from the start: even its sends fail.
			time.Sleep(200 * time.Millisecond)
			return rankErr(c.Rank(), "send", ErrCrashed)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvPatientExtendsForSlowPeer: heartbeats distinguish slow from
// dead — a rank that misses the first deadline but keeps heartbeating
// gets extensions instead of being declared dead.
func TestRecvPatientExtendsForSlowPeer(t *testing.T) {
	rc := RunConfig{Kind: Channels, Heartbeat: 10 * time.Millisecond}
	err := RunWithConfig(2, rc, func(c *Comm) error {
		reg := obs.NewRegistry()
		c.SetMetrics(reg)
		if c.Rank() == 1 {
			time.Sleep(200 * time.Millisecond)
			return c.Send(0, 9, "slow but alive")
		}
		v, err := c.RecvPatient(1, 9, 50*time.Millisecond, 20)
		if err != nil {
			return fmt.Errorf("patient recv failed: %w", err)
		}
		if v.(string) != "slow but alive" {
			return fmt.Errorf("got %v", v)
		}
		if reg.Counter("comm.retries").Value() == 0 {
			return fmt.Errorf("no extensions recorded for a slow peer")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvTimeoutNoHeartbeat: with detection off, a recv deadline is a
// hard deadline.
func TestRecvTimeoutNoHeartbeat(t *testing.T) {
	rc := RunConfig{Kind: Channels, OpTimeout: 60 * time.Millisecond}
	err := RunWithConfig(2, rc, func(c *Comm) error {
		if c.Rank() == 1 {
			return nil // never sends
		}
		start := time.Now()
		_, err := c.Recv(1, 3)
		if !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrClosed) {
			return fmt.Errorf("want timeout/closed, got %v", err)
		}
		if time.Since(start) > time.Second {
			return fmt.Errorf("recv blocked %v", time.Since(start))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendTimeoutOnBackpressure: a full inbox with a deadline fails
// the sender with ErrTimeout instead of blocking forever.
func TestSendTimeoutOnBackpressure(t *testing.T) {
	rc := RunConfig{Kind: Channels, OpTimeout: 40 * time.Millisecond}
	err := RunWithConfig(2, rc, func(c *Comm) error {
		if c.Rank() == 1 {
			time.Sleep(300 * time.Millisecond) // never receives meanwhile
			return nil
		}
		for i := 0; ; i++ {
			if err := c.Send(1, 4, 0); err != nil {
				if !errors.Is(err, ErrTimeout) {
					return fmt.Errorf("want ErrTimeout, got %v", err)
				}
				return nil
			}
			if i > inboxDepth+8 {
				return fmt.Errorf("no backpressure after %d sends", i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommCounters: the per-rank send/recv counters track traffic.
func TestCommCounters(t *testing.T) {
	err := Run(2, Channels, func(c *Comm) error {
		reg := obs.NewRegistry()
		c.SetMetrics(reg)
		peer := 1 - c.Rank()
		for i := 0; i < 5; i++ {
			if err := c.Send(peer, 8, i); err != nil {
				return err
			}
		}
		for i := 0; i < 5; i++ {
			if _, err := c.Recv(peer, 8); err != nil {
				return err
			}
		}
		snap := reg.Snapshot(c.Rank())
		if sent, recvd := snap.Counters["comm.send.count"], snap.Counters["comm.recv.count"]; sent != 5 || recvd != 5 {
			return fmt.Errorf("rank %d counters: sent %d recv %d", c.Rank(), sent, recvd)
		}
		if snap.Counters["comm.timeouts"] != 0 || snap.Counters["comm.retries"] != 0 {
			return fmt.Errorf("rank %d spurious counters: %v", c.Rank(), snap.Counters)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosOverTCP: the fault decorator composes with the real-socket
// transport too.
func TestChaosOverTCP(t *testing.T) {
	cfg := NewFaultConfig(5)
	cfg.DupProb, cfg.DelayProb = 0.1, 0.1
	cfg.MaxDelay = time.Millisecond
	rc := RunConfig{Kind: TCP, OpTimeout: chaosOpTimeout, Heartbeat: 20 * time.Millisecond, Fault: &cfg}
	err := RunWithConfig(3, rc, func(c *Comm) error {
		if sum, err := gatherSum(c, 2); err != nil || sum != 6 {
			return fmt.Errorf("gather+broadcast = %v, %v", sum, err)
		}
		return meet(c)
	})
	if err != nil {
		t.Fatal(err)
	}
}
