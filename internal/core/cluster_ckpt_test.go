package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"gnumap/internal/cluster"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
)

// TestRunReadSplitStreamCkptRounds: checkpoint rounds during a streamed
// read-split run observe consistent cluster-wide watermarks (stats
// account for exactly the dealt reads) and do not perturb the final
// reduced result.
func TestRunReadSplitStreamCkptRounds(t *testing.T) {
	p := makePipeline(t, 30000, 3, 8, 73)
	want := sharedBaseline(t, p, genome.Norm)
	cfg := Config{Workers: 2, Batch: 8, Queue: 2}

	var mu sync.Mutex
	var sinks []sinkRecord
	var got genome.Accumulator
	err := cluster.Run(4, cluster.Channels, func(c *cluster.Comm) error {
		var src fastq.Source
		var ck *CheckpointPolicy
		if c.Rank() == 0 {
			src = fastq.SliceSource(p.reads)
			ck = &CheckpointPolicy{Subscribers: []BarrierSubscriber{stateSink(100, func(r sinkRecord) {
				mu.Lock()
				sinks = append(sinks, r)
				mu.Unlock()
			})}}
		}
		acc, st, err := readSplit(c, p.ref, src, genome.Norm, cfg, ck)
		if err != nil {
			return err
		}
		if st.Mapped+st.Unmapped != int64(len(p.reads)) {
			return fmt.Errorf("stats don't cover all reads: %+v", st)
		}
		if c.Rank() == 0 {
			mu.Lock()
			got = acc
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sinks) < 2 {
		t.Fatalf("only %d cluster checkpoint rounds fired", len(sinks))
	}
	var prev int64 = -1
	for i, s := range sinks {
		if s.consumed <= prev {
			t.Errorf("round %d: watermark %d not monotone (prev %d)", i, s.consumed, prev)
		}
		prev = s.consumed
		if acct := s.st.Mapped + s.st.Unmapped; acct != s.consumed {
			t.Errorf("round %d: stats account for %d reads, watermark %d", i, acct, s.consumed)
		}
	}
	va, vb := view(t, want), view(t, got)
	for pos := 0; pos < p.ref.Len(); pos += 501 {
		a, b := va.Total(pos), vb.Total(pos)
		if math.Abs(a-b) > 1e-3*(1+a) {
			t.Fatalf("pos %d: checkpointed cluster run %v vs baseline %v", pos, b, a)
		}
	}
}

// TestRunReadSplitStreamCkptStopResume: a cooperative stop mid-stream
// returns ErrStopped after the collective tail, and resuming from the
// final checkpoint (state preloaded at rank 0, source skipped to the
// watermark) reproduces the uninterrupted run's accumulated mass and
// statistics.
func TestRunReadSplitStreamCkptStopResume(t *testing.T) {
	p := makePipeline(t, 30000, 3, 8, 79)
	want := sharedBaseline(t, p, genome.Norm)
	cfg := Config{Workers: 2, Batch: 8, Queue: 2}

	fullSt := runFullStreamStats(t, p, cfg)

	// Interrupted run: stop after 2 rounds.
	var mu sync.Mutex
	var last sinkRecord
	var rounds atomic.Int64
	err := cluster.Run(4, cluster.Channels, func(c *cluster.Comm) error {
		var src fastq.Source
		var ck *CheckpointPolicy
		if c.Rank() == 0 {
			src = fastq.SliceSource(p.reads)
			ck = &CheckpointPolicy{
				Subscribers: []BarrierSubscriber{stateSink(100, func(r sinkRecord) {
					mu.Lock()
					last = r
					mu.Unlock()
					rounds.Add(1)
				})},
				StopRequested: func() bool { return rounds.Load() >= 2 },
			}
		}
		_, _, err := readSplit(c, p.ref, src, genome.Norm, cfg, ck)
		if c.Rank() == 0 {
			if !errors.Is(err, ErrStopped) {
				return fmt.Errorf("rank 0: err = %v, want ErrStopped", err)
			}
			return nil
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.consumed <= 0 || last.consumed >= int64(len(p.reads)) {
		t.Fatalf("stop watermark %d of %d reads; widen the dataset", last.consumed, len(p.reads))
	}

	// Resume: preload the merged state at rank 0, stream the remainder.
	var got genome.Accumulator
	var restSt Stats
	err = cluster.Run(4, cluster.Channels, func(c *cluster.Comm) error {
		var src fastq.Source
		if c.Rank() == 0 {
			src = fastq.SliceSource(p.reads[last.consumed:])
		}
		acc, st, err := readSplit(c, p.ref, src, genome.Norm, cfg, nil, last.state)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			got, restSt = acc, st
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := last.st.Mapped + restSt.Mapped; m != fullSt.Mapped {
		t.Errorf("mapped %d after resume, want %d", m, fullSt.Mapped)
	}
	if u := last.st.Unmapped + restSt.Unmapped; u != fullSt.Unmapped {
		t.Errorf("unmapped %d after resume, want %d", u, fullSt.Unmapped)
	}
	va, vb := view(t, want), view(t, got)
	for pos := 0; pos < p.ref.Len(); pos += 501 {
		a, b := va.Total(pos), vb.Total(pos)
		if math.Abs(a-b) > 1e-3*(1+a) {
			t.Fatalf("pos %d: resumed cluster run %v vs baseline %v", pos, b, a)
		}
	}
}

// runFullStreamStats maps the whole dataset through the np=4 streamed
// path without checkpointing and returns the global stats.
func runFullStreamStats(t *testing.T, p *pipeline, cfg Config) Stats {
	t.Helper()
	var mu sync.Mutex
	var st Stats
	err := cluster.Run(4, cluster.Channels, func(c *cluster.Comm) error {
		var src fastq.Source
		if c.Rank() == 0 {
			src = fastq.SliceSource(p.reads)
		}
		_, s, err := readSplit(c, p.ref, src, genome.Norm, cfg, nil)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			st = s
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}
