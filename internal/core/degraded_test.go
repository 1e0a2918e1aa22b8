package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"gnumap/internal/cluster"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/obs"
	"gnumap/internal/snp"
)

// ftRunConfig is the fault-tolerant run configuration used across the
// degraded-mode suite: deadlines short enough to keep tests fast, a
// heartbeat well inside the deadline so slow ranks are not misjudged.
func ftRunConfig(fault *cluster.FaultConfig) cluster.RunConfig {
	return cluster.RunConfig{
		Kind:      cluster.Channels,
		OpTimeout: 300 * time.Millisecond,
		Heartbeat: 15 * time.Millisecond,
		Fault:     fault,
	}
}

// TestReadSplitFTMatchesPlainPath: with deadlines on but no faults,
// the coordinator protocol must reproduce the plain read-split result.
func TestReadSplitFTMatchesPlainPath(t *testing.T) {
	p := makePipeline(t, 20000, 3, 8, 71)
	want := sharedBaseline(t, p, genome.Norm)
	var got genome.Accumulator
	var mu sync.Mutex
	err := cluster.RunWithConfig(4, ftRunConfig(nil), func(c *cluster.Comm) error {
		acc, st, err := readSplit(c, p.ref, fastq.SliceSource(p.reads), genome.Norm, Config{Workers: 1}, nil)
		if err != nil {
			return err
		}
		// Every rank — root and workers — receives the global stats.
		if st.Mapped+st.Unmapped != int64(len(p.reads)) {
			return fmt.Errorf("rank %d: stats don't cover all reads: %+v", c.Rank(), st)
		}
		if st.Degraded() {
			return fmt.Errorf("rank %d: fault-free run marked degraded: %v", c.Rank(), st.LostRanks)
		}
		if c.Rank() == 0 {
			mu.Lock()
			got = acc
			mu.Unlock()
		} else if acc != nil {
			return fmt.Errorf("non-root rank received an accumulator")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	va, vb := view(t, want), view(t, got)
	for pos := 0; pos < p.ref.Len(); pos += 401 {
		a, b := va.Total(pos), vb.Total(pos)
		if math.Abs(a-b) > 1e-3*(1+a) {
			t.Fatalf("pos=%d: FT %v vs shared %v", pos, b, a)
		}
	}
}

// TestReadSplitDegradedSurvivesDeadWorker is the tentpole acceptance
// test: kill one worker before it can report, and the run must still
// complete — the dead rank's shard reassigned to survivors — with the
// same SNP calls as the fault-free baseline.
func TestReadSplitDegradedSurvivesDeadWorker(t *testing.T) {
	p := makePipeline(t, 20000, 4, 10, 73)
	want := sharedBaseline(t, p, genome.Norm)
	wantCalls, _, err := snp.CallAll(p.ref, want, snp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(wantCalls) == 0 {
		t.Fatal("baseline produced no SNP calls; test is vacuous")
	}

	fault := cluster.NewFaultConfig(9)
	fault.CrashRank = 2 // dies on its first send: rank 0 never hears from it
	var got genome.Accumulator
	var rootStats Stats
	var mu sync.Mutex
	start := time.Now()
	err = cluster.RunWithConfig(4, ftRunConfig(&fault), func(c *cluster.Comm) error {
		acc, st, err := readSplit(c, p.ref, fastq.SliceSource(p.reads), genome.Norm, Config{Workers: 1}, nil)
		if c.Rank() == fault.CrashRank {
			// The crashed rank observes its own death; returning the
			// ErrCrashed-wrapped error tells the runtime it "exited".
			if err == nil || !errors.Is(err, cluster.ErrCrashed) {
				return fmt.Errorf("crashed rank: want ErrCrashed, got %v", err)
			}
			return err
		}
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			got = acc
			rootStats = st
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("degraded run took %v", elapsed)
	}
	if got == nil {
		t.Fatal("no accumulator at root")
	}
	if len(rootStats.LostRanks) != 1 || rootStats.LostRanks[0] != 2 {
		t.Errorf("LostRanks = %v, want [2]", rootStats.LostRanks)
	}
	if !rootStats.Degraded() {
		t.Error("run not marked degraded")
	}
	// The reassigned shard means every read was still mapped exactly once.
	if rootStats.Mapped+rootStats.Unmapped != int64(len(p.reads)) {
		t.Errorf("stats don't cover all reads after reassignment: %+v", rootStats)
	}
	gotCalls, _, err := snp.CallAll(p.ref, got, snp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotCalls) != len(wantCalls) {
		t.Fatalf("degraded run: %d SNP calls vs baseline %d", len(gotCalls), len(wantCalls))
	}
	for i := range wantCalls {
		if wantCalls[i].GlobalPos != gotCalls[i].GlobalPos || wantCalls[i].Allele != gotCalls[i].Allele {
			t.Fatalf("call %d differs: %+v vs %+v", i, gotCalls[i], wantCalls[i])
		}
	}
}

// TestReadSplitDegradedAllWorkersDead: when every worker dies, rank 0
// maps the orphaned shards itself and the run still completes.
func TestReadSplitDegradedAllWorkersDead(t *testing.T) {
	p := makePipeline(t, 10000, 2, 6, 79)
	want := sharedBaseline(t, p, genome.Norm)

	fault := cluster.NewFaultConfig(3)
	fault.CrashRank = 1 // the only worker in a 2-rank run
	var got genome.Accumulator
	var rootStats Stats
	var mu sync.Mutex
	err := cluster.RunWithConfig(2, ftRunConfig(&fault), func(c *cluster.Comm) error {
		acc, st, err := readSplit(c, p.ref, fastq.SliceSource(p.reads), genome.Norm, Config{Workers: 1}, nil)
		if c.Rank() == 1 {
			return err // ErrCrashed, treated as a simulated death
		}
		if err != nil {
			return err
		}
		mu.Lock()
		got, rootStats = acc, st
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rootStats.LostRanks) != 1 || rootStats.LostRanks[0] != 1 {
		t.Errorf("LostRanks = %v, want [1]", rootStats.LostRanks)
	}
	if rootStats.Mapped+rootStats.Unmapped != int64(len(p.reads)) {
		t.Errorf("stats don't cover all reads: %+v", rootStats)
	}
	va, vb := view(t, want), view(t, got)
	for pos := 0; pos < p.ref.Len(); pos += 301 {
		a, b := va.Total(pos), vb.Total(pos)
		if math.Abs(a-b) > 1e-3*(1+a) {
			t.Fatalf("pos=%d: degraded %v vs shared %v", pos, b, a)
		}
	}
}

// TestGenomeSplitCrashAbortsWithinDeadline: genome-split cannot drop a
// rank (each owns an exclusive genome slice), so a crash must surface
// as a bounded, typed failure — not a hang.
func TestGenomeSplitCrashAbortsWithinDeadline(t *testing.T) {
	p := makePipeline(t, 10000, 2, 6, 83)
	fault := cluster.NewFaultConfig(4)
	fault.CrashRank = 1
	acc, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = cluster.RunWithConfig(3, ftRunConfig(&fault), func(c *cluster.Comm) error {
		_, err := RunGenomeSplit(c, p.ref, fastq.SliceSource(p.reads), acc, Config{Workers: 1}, nil)
		if c.Rank() == 1 {
			return err // crashed rank's own failure is a simulated death
		}
		if err == nil {
			return fmt.Errorf("rank %d: genome-split succeeded with a dead rank", c.Rank())
		}
		var re *cluster.RankError
		if !errors.As(err, &re) {
			return fmt.Errorf("rank %d: untyped genome-split error: %v", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Errorf("genome-split abort took %v", elapsed)
	}
}

// TestGenomeSplitWorkersWaitWhileHeartbeatsArrive: a genome-split
// worker waits for rank 0 as long as rank 0's heartbeats arrive, as a
// read-split worker does, however long rank 0 is stalled on its source
// or running a barrier subscriber; an op deadline bounds only a silent
// rank 0. Both stalls outlast the 300 ms deadline, and the run still
// maps every read.
func TestGenomeSplitWorkersWaitWhileHeartbeatsArrive(t *testing.T) {
	p := makePipeline(t, 10000, 2, 6, 83)
	rc := ftRunConfig(nil)
	slept := 0
	for _, tc := range []struct {
		name   string
		stall  int64 // the read rank 0's source stalls before (0 = none)
		policy *CheckpointPolicy
	}{
		{"stalling source", 600, nil},
		{"slow subscriber", 0, &CheckpointPolicy{Subscribers: []BarrierSubscriber{{EveryReads: 500, Run: func(*Barrier) error {
			time.Sleep(2 * rc.OpTimeout)
			slept++
			return nil
		}}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			acc, err := genome.New(genome.Norm, p.ref.Len())
			if err != nil {
				t.Fatal(err)
			}
			src := &countingSource{Source: fastq.SliceSource(p.reads), check: func(pulled int64) {
				if pulled == tc.stall-1 {
					time.Sleep(5 * rc.OpTimeout)
				}
			}}
			err = cluster.RunWithConfig(2, rc, func(c *cluster.Comm) error {
				st, err := RunGenomeSplit(c, p.ref, src, acc, Config{Workers: 1}, tc.policy)
				if err == nil && st.Mapped+st.Unmapped != int64(len(p.reads)) {
					err = fmt.Errorf("rank %d: stats cover %d of %d reads", c.Rank(), st.Mapped+st.Unmapped, len(p.reads))
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.policy != nil && slept == 0 {
				t.Error("the slow subscriber never ran")
			}
		})
	}
}

// callSet is an accumulator's SNP calls as position/allele pairs — the
// identity the degraded suite holds a recovered run to.
func callSet(t *testing.T, ref *genome.Reference, acc genome.Accumulator) []string {
	t.Helper()
	calls, _, err := snp.CallAll(ref, acc, snp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(calls))
	for i, c := range calls {
		out[i] = fmt.Sprintf("%d/%v", c.GlobalPos, c.Allele)
	}
	return out
}

// midStreamCrash kills rank 2 of 4 after it has acked a few batches, so
// it dies holding mapped mass rank 0 has not collected.
func midStreamCrash() *cluster.FaultConfig {
	fault := cluster.NewFaultConfig(9)
	fault.CrashRank, fault.CrashAfterSends = 2, 3
	return &fault
}

// runDegraded runs np=4 read-split under midStreamCrash and returns
// rank 0's result; ck and cfg.Metrics (both optional) go to rank 0 only.
func runDegraded(t *testing.T, p *pipeline, src fastq.Source, cfg Config, ck *CheckpointPolicy) (genome.Accumulator, Stats) {
	t.Helper()
	var got genome.Accumulator
	var rootStats Stats
	var mu sync.Mutex
	err := cluster.RunWithConfig(4, ftRunConfig(midStreamCrash()), func(c *cluster.Comm) error {
		rcfg, rck := cfg, ck
		if c.Rank() != 0 {
			rcfg.Metrics, rck = nil, nil
		}
		acc, st, err := readSplit(c, p.ref, src, genome.Norm, rcfg, rck)
		if c.Rank() == 2 {
			if !errors.Is(err, cluster.ErrCrashed) {
				return fmt.Errorf("crashed rank: want ErrCrashed, got %v", err)
			}
			return err
		}
		if err == nil && c.Rank() == 0 {
			mu.Lock()
			got, rootStats = acc, st
			mu.Unlock()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rootStats.LostRanks) != 1 || rootStats.LostRanks[0] != 2 {
		t.Fatalf("LostRanks = %v, want [2]", rootStats.LostRanks)
	}
	if n := rootStats.Mapped + rootStats.Unmapped; n != int64(len(p.reads)) {
		t.Fatalf("stats cover %d reads, want exactly %d", n, len(p.reads))
	}
	return got, rootStats
}

// TestReadSplitDegradedMidStreamDeath: a worker that dies mid-stream,
// after mapping batches whose mass rank 0 never collected, costs
// nothing: its ledger is re-dealt, every read counts exactly once and
// the call set is the shared-memory baseline's.
func TestReadSplitDegradedMidStreamDeath(t *testing.T) {
	p := makePipeline(t, 20000, 4, 10, 73)
	want := callSet(t, p.ref, sharedBaseline(t, p, genome.Norm))
	if len(want) == 0 {
		t.Fatal("baseline produced no SNP calls; test is vacuous")
	}
	got, _ := runDegraded(t, p, fastq.SliceSource(p.reads), Config{Workers: 1, batch: 8, queue: 2}, nil)
	if g := callSet(t, p.ref, got); fmt.Sprint(g) != fmt.Sprint(want) {
		t.Errorf("degraded calls %v, baseline %v", g, want)
	}
}

// TestReadSplitDegradedCheckpointRounds is fault tolerance × checkpoint:
// the same death with rounds on. A round that lost a rank repeats
// before any subscriber runs, so every committed watermark — before and after the
// loss — accounts for exactly its reads, and its state, resumed from
// over the remaining reads, yields the baseline call set.
func TestReadSplitDegradedCheckpointRounds(t *testing.T) {
	p := makePipeline(t, 20000, 4, 10, 73)
	want := callSet(t, p.ref, sharedBaseline(t, p, genome.Norm))
	var sinks []sinkRecord
	ck := &CheckpointPolicy{Subscribers: []BarrierSubscriber{stateSink(400, func(r sinkRecord) {
		sinks = append(sinks, r) // rank 0's dealer goroutine only
	})}}
	// A credit window wider than a round's share of batches: rank 0 never
	// waits on an ack, so the death is always discovered inside a round,
	// at the payload that does not come.
	got, _ := runDegraded(t, p, fastq.SliceSource(p.reads), Config{Workers: 1, batch: 8, queue: 64}, ck)
	if g := callSet(t, p.ref, got); fmt.Sprint(g) != fmt.Sprint(want) {
		t.Errorf("degraded checkpointed calls %v, baseline %v", g, want)
	}
	eng, err := NewEngine(p.ref, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	afterLoss := 0
	for i, s := range sinks {
		if acct := s.st.Mapped + s.st.Unmapped; acct != s.consumed {
			t.Errorf("sink %d: stats account for %d reads, watermark %d (committed inside a lossy round?)", i, acct, s.consumed)
		}
		if !s.st.Degraded() {
			continue
		}
		afterLoss++
		acc, err := genome.New(genome.Norm, p.ref.Len())
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.LoadStateBytes(s.state); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.MapReads(p.reads[s.consumed:], acc); err != nil {
			t.Fatal(err)
		}
		if g := callSet(t, p.ref, acc); fmt.Sprint(g) != fmt.Sprint(want) {
			t.Errorf("sink %d (watermark %d): resumed calls %v, baseline %v", i, s.consumed, g, want)
		}
	}
	if afterLoss == 0 {
		t.Fatalf("no checkpoint committed after the loss (%d sinks); shrink EveryReads", len(sinks))
	}
}

// countingSource counts the reads pulled from it, so a test can bound
// what rank 0 has taken in and not yet committed.
type countingSource struct {
	fastq.Source
	pulled int64
	check  func(pulled int64)
}

func (s *countingSource) Next() (*fastq.Read, error) {
	rd, err := s.Source.Next()
	if err == nil {
		s.pulled++
		s.check(s.pulled)
	}
	return rd, err
}

// TestReadSplitDegradedLedgerBounded: a fault-tolerant streamed run
// with rounds on never holds more than one round interval of reads plus
// the in-flight window — not the whole FASTQ, as the materializing
// fallback did — even while it re-deals a dead rank's ledger.
func TestReadSplitDegradedLedgerBounded(t *testing.T) {
	p := makePipeline(t, 20000, 4, 10, 73)
	cfg := Config{Workers: 1, batch: 8, queue: 2, Metrics: obs.NewRegistry()}
	const every = 400
	bound := int64(every + 4*cfg.queue*cfg.batch)
	var committed int64
	src := &countingSource{Source: fastq.SliceSource(p.reads), check: func(pulled int64) {
		if pulled-committed > bound {
			t.Errorf("%d reads pulled past watermark %d, bound %d", pulled-committed, committed, bound)
		}
	}}
	ck := &CheckpointPolicy{Subscribers: []BarrierSubscriber{{EveryReads: every, Run: func(b *Barrier) error {
		committed = b.Consumed
		return nil
	}}}}
	runDegraded(t, p, src, cfg, ck)
	if int64(len(p.reads)) < 4*bound {
		t.Fatalf("%d reads do not exercise a bound of %d", len(p.reads), bound)
	}
	peak := int64(cfg.Metrics.Gauge("stream.ledger.peak.reads").Value())
	if peak <= 0 || peak > bound {
		t.Errorf("ledger peaked at %d reads, want in (0, %d]", peak, bound)
	}
	pipeBound := (cfg.queue + cfg.Workers) * cfg.batch
	if len(p.reads) <= pipeBound {
		t.Fatalf("%d reads do not exercise a pipe bound of %d", len(p.reads), pipeBound)
	}
	if r := cfg.Metrics.Gauge("stream.peak.resident.reads").Value(); r > float64(pipeBound) {
		t.Errorf("rank 0's pipeline held %v reads, above (queue+workers)*batch = %d", r, pipeBound)
	}
}

// TestReadSplitDegradedSilentWorkerStillGetsDone: a worker that is
// alive but whose payload never arrives (timed out, or dropped by the
// network) is declared lost — and must still be released. The "worker"
// here speaks the wire protocol by hand and ignores round markers;
// rank 0 maps its re-dealt ledger itself and sends Done regardless.
func TestReadSplitDegradedSilentWorkerStillGetsDone(t *testing.T) {
	p := makePipeline(t, 10000, 2, 4, 89)
	rc := cluster.RunConfig{Kind: cluster.Channels, OpTimeout: 200 * time.Millisecond}
	err := cluster.RunWithConfig(2, rc, func(c *cluster.Comm) error {
		if c.Rank() == 0 {
			_, st, err := readSplit(c, p.ref, fastq.SliceSource(p.reads), genome.Norm, Config{Workers: 1}, nil)
			if err != nil {
				return err
			}
			if st.Mapped+st.Unmapped != int64(len(p.reads)) || fmt.Sprint(st.LostRanks) != "[1]" {
				return fmt.Errorf("rank 0: stats %+v for %d reads", st, len(p.reads))
			}
			return nil
		}
		taken := 0
		for {
			v, err := c.RecvPatient(0, streamShardTag, 20*time.Second, 0)
			if err != nil {
				return fmt.Errorf("silent worker never released: %w", err)
			}
			switch sh := v.(streamShard); {
			case sh.Done:
				if sh.Stats.Mapped+sh.Stats.Unmapped != int64(len(p.reads)) {
					return fmt.Errorf("Done carries stats %+v for %d reads", sh.Stats, len(p.reads))
				}
				return c.Send(0, streamAckTag, farewell)
			case sh.Round == 0:
				taken++
				if err := c.Send(0, streamAckTag, taken); err != nil {
					return err
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadSplitDegradedDroppedAcksKeepTheRank: a live worker whose acks
// the network eats must keep its place. The worker here is the real one
// (a pipe behind the wire protocol) except that two of every three
// acks never reach rank 0 — dropped by hand, because a seeded
// FaultTransport hands its rolls to packets in goroutine-schedule order
// and cannot be aimed at acks. Every window of Queue = 4 batches still
// sees one ack (only the loss of a whole window's acks has to wait for
// the deadline), and acks are cumulative, so the one that arrives (or
// the next round) supersedes the lost ones: the run finishes
// without waiting out a deadline, loses no rank and calls what the
// fault-free run calls. With per-ack credits every lost ack cost the
// window a slot for good, and after Queue of them rank 0 waited out the
// deadline and declared the rank lost.
func TestReadSplitDegradedDroppedAcksKeepTheRank(t *testing.T) {
	p := makePipeline(t, 20000, 4, 10, 73)
	want := callSet(t, p.ref, sharedBaseline(t, p, genome.Norm))
	if len(want) == 0 {
		t.Fatal("baseline produced no SNP calls; test is vacuous")
	}
	cfg := Config{Workers: 1, batch: 8}
	rc := cluster.RunConfig{Kind: cluster.Channels, OpTimeout: 2 * time.Second}
	var got genome.Accumulator
	var rootStats Stats
	dropped := 0
	start := time.Now()
	err := cluster.RunWithConfig(2, rc, func(c *cluster.Comm) error {
		if c.Rank() == 0 {
			pol := &CheckpointPolicy{Subscribers: []BarrierSubscriber{stateSink(400, func(sinkRecord) {})}}
			acc, st, err := readSplit(c, p.ref, fastq.SliceSource(p.reads), genome.Norm, cfg, pol)
			got, rootStats = acc, st
			return err
		}
		eng, err := NewEngine(p.ref, cfg)
		if err != nil {
			return err
		}
		acc, err := genome.New(genome.Norm, p.ref.Len())
		if err != nil {
			return err
		}
		pipe := eng.startPipe(acc)
		defer pipe.finish()
		taken := 0
		for {
			v, err := c.RecvPatient(0, streamShardTag, 20*time.Second, 0)
			if err != nil {
				return err
			}
			switch sh := v.(streamShard); {
			case sh.Done:
				if err := c.Send(0, streamAckTag, farewell); err != nil {
					return err
				}
				return pipe.finish()
			case sh.Round > 0:
				pl, err := workerRound(pipe, acc, sh.Round)
				if err != nil {
					return err
				}
				if err := c.Send(0, streamRoundTag, pl); err != nil {
					return err
				}
			default:
				if err := pipe.feed(sh.Reads); err != nil {
					return err
				}
				if taken++; taken%3 != 0 {
					dropped++ // this ack is lost on the wire
					continue
				}
				if err := c.Send(0, streamAckTag, taken); err != nil {
					return err
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*rc.OpTimeout {
		t.Errorf("run took %v with a %v deadline: a lost ack was waited out", elapsed, rc.OpTimeout)
	}
	if rootStats.Degraded() {
		t.Errorf("LostRanks = %v: a live rank lost its place over dropped acks", rootStats.LostRanks)
	}
	if n := rootStats.Mapped + rootStats.Unmapped; n != int64(len(p.reads)) {
		t.Errorf("stats cover %d reads, want exactly %d", n, len(p.reads))
	}
	if g := callSet(t, p.ref, got); fmt.Sprint(g) != fmt.Sprint(want) {
		t.Errorf("calls %v, fault-free baseline %v", g, want)
	}
	if dropped <= queueBatches {
		t.Errorf("only %d acks dropped; not enough to exhaust a window of %d", dropped, queueBatches)
	}
}

// TestReadSplitDegradedIgnoredWorkerReturnsNil is the worker's side of
// the same bug: a real worker whose payload rank 0 (hand-driven here)
// discards has done nothing wrong, and returns nil with the global
// stats when Done arrives.
func TestReadSplitDegradedIgnoredWorkerReturnsNil(t *testing.T) {
	p := makePipeline(t, 10000, 2, 4, 89)
	rc := cluster.RunConfig{Kind: cluster.Channels, OpTimeout: 5 * time.Second}
	global := Stats{Mapped: 7, Unmapped: 1, LostRanks: []int{1}}
	err := cluster.RunWithConfig(2, rc, func(c *cluster.Comm) error {
		if c.Rank() == 1 {
			_, st, err := readSplit(c, p.ref, nil, genome.Norm, Config{Workers: 1}, nil)
			if err != nil {
				return fmt.Errorf("discarded worker: %w", err)
			}
			if st.Mapped != global.Mapped || fmt.Sprint(st.LostRanks) != "[1]" {
				return fmt.Errorf("worker returned %+v, want Done's %+v", st, global)
			}
			return nil
		}
		for _, sh := range []streamShard{{Reads: p.reads[:8]}, {Round: 1}, {Done: true, Stats: global}} {
			if err := c.Send(1, streamShardTag, sh); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadSplitDegradedLostDoneIsResent: the network eats the first Done
// a live worker is sent (dropped by hand, as in
// TestReadSplitDegradedDroppedAcksKeepTheRank). Rank 0 hears no farewell
// within the deadline, sees the worker's heartbeats and sends Done
// again, so the worker is released and the finished run succeeds.
// Without the farewell the worker waited until rank 0's heartbeats
// stopped, then failed the run.
func TestReadSplitDegradedLostDoneIsResent(t *testing.T) {
	p := makePipeline(t, 10000, 2, 4, 89)
	cfg := Config{Workers: 1}
	rc := cluster.RunConfig{Kind: cluster.Channels, OpTimeout: 200 * time.Millisecond, Heartbeat: 10 * time.Millisecond}
	var rootStats Stats
	dones := 0
	err := cluster.RunWithConfig(2, rc, func(c *cluster.Comm) error {
		if c.Rank() == 0 {
			_, st, err := readSplit(c, p.ref, fastq.SliceSource(p.reads), genome.Norm, cfg, nil)
			rootStats = st
			return err
		}
		eng, err := NewEngine(p.ref, cfg)
		if err != nil {
			return err
		}
		acc, err := genome.New(genome.Norm, p.ref.Len())
		if err != nil {
			return err
		}
		pipe := eng.startPipe(acc)
		defer pipe.finish()
		taken := 0
		for {
			v, err := c.RecvPatient(0, streamShardTag, 20*time.Second, 0)
			if err != nil {
				return err
			}
			switch sh := v.(streamShard); {
			case sh.Done:
				if dones++; dones == 1 {
					continue // this Done is lost on the wire
				}
				if err := c.Send(0, streamAckTag, farewell); err != nil {
					return err
				}
				return pipe.finish()
			case sh.Round > 0:
				pl, err := workerRound(pipe, acc, sh.Round)
				if err != nil {
					return err
				}
				if err := c.Send(0, streamRoundTag, pl); err != nil {
					return err
				}
			default:
				if err := pipe.feed(sh.Reads); err != nil {
					return err
				}
				taken++
				if err := c.Send(0, streamAckTag, taken); err != nil {
					return err
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if dones != 2 {
		t.Errorf("worker saw %d Done messages, want the lost one and its re-send", dones)
	}
	if rootStats.Degraded() {
		t.Errorf("LostRanks = %v: a live rank was lost over a lost Done", rootStats.LostRanks)
	}
	if n := rootStats.Mapped + rootStats.Unmapped; n != int64(len(p.reads)) {
		t.Errorf("stats cover %d reads, want exactly %d", n, len(p.reads))
	}
}

// TestReadSplitDegradedLostMarkerIsResent: the network eats the first
// round marker a live worker is sent (dropped by hand, as in
// TestReadSplitDegradedLostDoneIsResent). Rank 0 hears no payload
// within the deadline, sees the worker's heartbeats and sends the
// marker again, so the round completes after one deadline instead of
// every extension, and the worker keeps its place. Before the re-send,
// rank 0 waited out 41 deadlines and then declared the live rank lost.
func TestReadSplitDegradedLostMarkerIsResent(t *testing.T) {
	p := makePipeline(t, 20000, 4, 10, 73)
	want := callSet(t, p.ref, sharedBaseline(t, p, genome.Norm))
	if len(want) == 0 {
		t.Fatal("baseline produced no SNP calls; test is vacuous")
	}
	cfg := Config{Workers: 1}
	rc := cluster.RunConfig{Kind: cluster.Channels, OpTimeout: time.Second, Heartbeat: 10 * time.Millisecond}
	var got genome.Accumulator
	var rootStats Stats
	markers := 0
	start := time.Now()
	err := cluster.RunWithConfig(2, rc, func(c *cluster.Comm) error {
		if c.Rank() == 0 {
			acc, st, err := readSplit(c, p.ref, fastq.SliceSource(p.reads), genome.Norm, cfg, nil)
			got, rootStats = acc, st
			return err
		}
		eng, err := NewEngine(p.ref, cfg)
		if err != nil {
			return err
		}
		acc, err := genome.New(genome.Norm, p.ref.Len())
		if err != nil {
			return err
		}
		pipe := eng.startPipe(acc)
		defer pipe.finish()
		taken := 0
		for {
			v, err := c.RecvPatient(0, streamShardTag, 20*time.Second, 0)
			if err != nil {
				return err
			}
			switch sh := v.(streamShard); {
			case sh.Done:
				if err := c.Send(0, streamAckTag, farewell); err != nil {
					return err
				}
				return pipe.finish()
			case sh.Round > 0:
				if markers++; markers == 1 {
					continue // this marker is lost on the wire
				}
				pl, err := workerRound(pipe, acc, sh.Round)
				if err != nil {
					return err
				}
				if err := c.Send(0, streamRoundTag, pl); err != nil {
					return err
				}
			default:
				if err := pipe.feed(sh.Reads); err != nil {
					return err
				}
				taken++
				if err := c.Send(0, streamAckTag, taken); err != nil {
					return err
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*rc.OpTimeout {
		t.Errorf("run took %v with a %v deadline: the lost marker was waited out", elapsed, rc.OpTimeout)
	}
	if markers != 2 {
		t.Errorf("worker saw %d round markers, want the lost one and its re-send", markers)
	}
	if rootStats.Degraded() {
		t.Errorf("LostRanks = %v: a live rank was lost over a lost marker", rootStats.LostRanks)
	}
	if n := rootStats.Mapped + rootStats.Unmapped; n != int64(len(p.reads)) {
		t.Errorf("stats cover %d reads, want exactly %d", n, len(p.reads))
	}
	if g := callSet(t, p.ref, got); fmt.Sprint(g) != fmt.Sprint(want) {
		t.Errorf("calls %v, fault-free baseline %v", g, want)
	}
}

// workerRound is streamReceive's answer to a round marker, for the
// tests that stand in for a worker rank: quiesce the pipe, snapshot the
// accumulator and reset it.
func workerRound(p *pipe, acc genome.Accumulator, round int) (roundPayload, error) {
	pl := roundPayload{Round: round}
	var err error
	if pl.Stats, err = p.quiesce(); err != nil {
		return pl, err
	}
	if pl.State, err = acc.State(); err != nil {
		return pl, err
	}
	genome.Reset(acc)
	return pl, nil
}
