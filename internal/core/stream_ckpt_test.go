package core

import (
	"errors"
	"io"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/obs"
)

type sinkRecord struct {
	consumed int64
	st       Stats
	state    []byte
}

// stateSink is a checkpoint-shaped subscriber: every everyReads reads
// (0 = source/stop barriers only) it snapshots the accumulator state
// and hands the barrier's view to record.
func stateSink(everyReads int64, record func(sinkRecord)) BarrierSubscriber {
	return BarrierSubscriber{EveryReads: everyReads, Run: func(b *Barrier) error {
		state, err := b.State()
		if err != nil {
			return err
		}
		record(sinkRecord{b.Consumed, b.Stats, state})
		return nil
	}}
}

// TestMapReadsFromBarrierSinkInvariants exercises the periodic quiesce
// barrier with four workers writing: sinks fire at the configured
// interval, consumed counts are monotone and consistent with the stats
// snapshot, and the pipeline's final result is unchanged by the
// barriers.
func TestMapReadsFromBarrierSinkInvariants(t *testing.T) {
	p := makePipeline(t, 30000, 3, 8, 51)
	cfg := Config{Workers: 4, Batch: 16, Queue: 2}
	eng, err := NewEngine(p.ref, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Reference run without checkpointing.
	want, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	wantSt, err := eng.MapReadsFrom(fastq.SliceSource(p.reads), want, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	acc, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	var sinks []sinkRecord
	pol := &CheckpointPolicy{Subscribers: []BarrierSubscriber{stateSink(100, func(r sinkRecord) {
		sinks = append(sinks, r)
	})}}
	gotSt, err := eng.MapReadsFrom(fastq.SliceSource(p.reads), acc, 0, pol)
	if err != nil {
		t.Fatal(err)
	}
	if len(sinks) < 2 {
		t.Fatalf("only %d checkpoints fired over %d reads at interval 100", len(sinks), len(p.reads))
	}
	var prev int64 = -1
	for i, s := range sinks {
		if s.consumed <= prev {
			t.Errorf("sink %d: consumed %d not monotone (prev %d)", i, s.consumed, prev)
		}
		prev = s.consumed
		if got := s.st.Mapped + s.st.Unmapped; got != s.consumed {
			t.Errorf("sink %d: stats account for %d reads, consumed %d", i, got, s.consumed)
		}
		if len(s.state) == 0 {
			t.Errorf("sink %d: empty state snapshot", i)
		}
	}
	if gotSt.Mapped != wantSt.Mapped || gotSt.Unmapped != wantSt.Unmapped || gotSt.Locations != wantSt.Locations {
		t.Errorf("stats diverge with checkpointing: %+v vs %+v", gotSt, wantSt)
	}
	compareAccums(t, want, acc, p.ref.Len())
}

// TestCheckpointStallIsRecorded: what checkpointing adds to the critical
// path — the window with every worker parked, snapshot through sink
// return — lands in stream.ckpt.stall.seconds once per barrier, which
// is where -metrics-out gets the number an operator reads.
func TestCheckpointStallIsRecorded(t *testing.T) {
	p := makePipeline(t, 30000, 3, 8, 51)
	reg := obs.NewRegistry()
	cfg := Config{Workers: 2, Batch: 16, Queue: 2, Metrics: reg}
	eng, err := NewEngine(p.ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	var barriers int64
	pol := &CheckpointPolicy{Subscribers: []BarrierSubscriber{stateSink(100, func(sinkRecord) { barriers++ })}}
	start := time.Now()
	if _, err := eng.MapReadsFrom(fastq.SliceSource(p.reads), acc, 0, pol); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start).Seconds()
	stall := reg.Timer("stream.ckpt.stall.seconds")
	if barriers < 2 || stall.Count() != barriers {
		t.Errorf("%d stall observations for %d barriers", stall.Count(), barriers)
	}
	if sum := stall.Sum(); !(sum > 0 && sum < wall) {
		t.Errorf("stall sum %gs not inside (0, wall %gs)", sum, wall)
	}
}

// TestMapReadsFromBarrierResumeIdentity is the resume invariant at the
// engine level: interrupt a run at a checkpoint, load the checkpoint
// state into a fresh accumulator, skip the watermark, map the rest —
// the final accumulated mass matches the uninterrupted run.
func TestMapReadsFromBarrierResumeIdentity(t *testing.T) {
	p := makePipeline(t, 30000, 3, 8, 53)
	cfg := Config{Workers: 4, Batch: 16, Queue: 2}
	eng, err := NewEngine(p.ref, cfg)
	if err != nil {
		t.Fatal(err)
	}

	full, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	fullSt, err := eng.MapReadsFrom(fastq.SliceSource(p.reads), full, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: stop cooperatively after the second checkpoint.
	acc1, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	var last sinkRecord
	var nSinks atomic.Int64
	pol := &CheckpointPolicy{
		Subscribers: []BarrierSubscriber{stateSink(150, func(r sinkRecord) {
			last = r
			nSinks.Add(1)
		})},
		StopRequested: func() bool { return nSinks.Load() >= 2 },
	}
	_, err = eng.MapReadsFrom(fastq.SliceSource(p.reads), acc1, 0, pol)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("interrupted run returned %v, want ErrStopped", err)
	}
	if last.consumed <= 0 || last.consumed >= int64(len(p.reads)) {
		t.Fatalf("stop checkpoint at watermark %d of %d reads; dataset too small for the test", last.consumed, len(p.reads))
	}

	// Resume: fresh accumulator, load the checkpoint, skip the
	// watermark, map the remainder.
	acc2, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	if err := acc2.LoadStateBytes(last.state); err != nil {
		t.Fatal(err)
	}
	rest := p.reads[last.consumed:]
	restSt, err := eng.MapReadsFrom(fastq.SliceSource(rest), acc2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := last.st.Mapped + restSt.Mapped; got != fullSt.Mapped {
		t.Errorf("mapped %d after resume, want %d", got, fullSt.Mapped)
	}
	if got := last.st.Unmapped + restSt.Unmapped; got != fullSt.Unmapped {
		t.Errorf("unmapped %d after resume, want %d", got, fullSt.Unmapped)
	}
	compareAccums(t, full, acc2, p.ref.Len())
}

// TestMapReadsFromBarrierSubscribersCompose: two subscribers with
// different cadences share the pipeline's one quiesce — each runs on
// its own schedule (and both at a stop), each sees stats that account
// for exactly the consumed reads, and the mapping result is unchanged.
func TestMapReadsFromBarrierSubscribersCompose(t *testing.T) {
	p := makePipeline(t, 30000, 3, 8, 61)
	cfg := Config{Workers: 4, Batch: 10, Queue: 2}
	eng, err := NewEngine(p.ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.MapReadsFrom(fastq.SliceSource(p.reads), want, 0, nil); err != nil {
		t.Fatal(err)
	}

	acc, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	var fast, slow []int64
	count := func(into *[]int64) func(*Barrier) error {
		return func(b *Barrier) error {
			if got := b.Stats.Mapped + b.Stats.Unmapped; got != b.Consumed {
				t.Errorf("barrier at %d reads: stats account for %d", b.Consumed, got)
			}
			*into = append(*into, b.Consumed)
			return nil
		}
	}
	pol := &CheckpointPolicy{Subscribers: []BarrierSubscriber{
		{EveryReads: 100, Run: count(&fast)},
		{EveryReads: 250, Run: count(&slow)},
	}}
	if _, err := eng.MapReadsFrom(fastq.SliceSource(p.reads), acc, 0, pol); err != nil {
		t.Fatal(err)
	}
	n := int64(len(p.reads))
	if int64(len(fast)) != n/100 {
		t.Errorf("every-100 subscriber ran %d times over %d reads", len(fast), n)
	}
	if int64(len(slow)) != n/250 {
		t.Errorf("every-250 subscriber ran %d times over %d reads", len(slow), n)
	}
	for i, c := range fast {
		if c != int64(i+1)*100 {
			t.Errorf("every-100 run %d at %d reads", i, c)
		}
	}
	for i, c := range slow {
		if c != int64(i+1)*250 {
			t.Errorf("every-250 run %d at %d reads", i, c)
		}
	}
	compareAccums(t, want, acc, p.ref.Len())
}

// barrierSource injects ErrCkptBarrier every interval reads.
type barrierSource struct {
	reads    []*fastq.Read
	pos      int
	interval int
	sinceBar int
}

func (s *barrierSource) Next() (*fastq.Read, error) {
	if s.sinceBar >= s.interval {
		s.sinceBar = 0
		return nil, ErrCkptBarrier
	}
	if s.pos >= len(s.reads) {
		return nil, io.EOF
	}
	rd := s.reads[s.pos]
	s.pos++
	s.sinceBar++
	return rd, nil
}

// TestMapReadsFromSourceBarrier drives the out-of-band barrier the
// cluster protocol uses: the source itself requests checkpoints, at
// positions that do not align with batch boundaries.
func TestMapReadsFromSourceBarrier(t *testing.T) {
	p := makePipeline(t, 30000, 3, 8, 57)
	cfg := Config{Workers: 4, Batch: 16, Queue: 2}
	eng, err := NewEngine(p.ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	wantSt, err := eng.MapReadsFrom(fastq.SliceSource(p.reads), want, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	acc, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	var consumedAt []int64
	pol := &CheckpointPolicy{Subscribers: []BarrierSubscriber{stateSink(0, func(r sinkRecord) {
		consumedAt = append(consumedAt, r.consumed)
	})}}
	src := &barrierSource{reads: p.reads, interval: 37}
	gotSt, err := eng.MapReadsFrom(src, acc, 0, pol)
	if err != nil {
		t.Fatal(err)
	}
	if len(consumedAt) < 3 {
		t.Fatalf("only %d barrier checkpoints fired", len(consumedAt))
	}
	for i, c := range consumedAt {
		if want := int64((i + 1) * 37); c != want {
			t.Errorf("barrier %d fired at consumed=%d, want %d", i, c, want)
		}
	}
	if gotSt.Mapped != wantSt.Mapped || gotSt.Unmapped != wantSt.Unmapped || gotSt.Locations != wantSt.Locations {
		t.Errorf("stats diverge with barriers: %+v vs %+v", gotSt, wantSt)
	}
	compareAccums(t, want, acc, p.ref.Len())
}

// TestMapReadsFromNilPolicyBarrier: a barrier from the source with
// no policy attached quietly resumes (no sink, no error).
func TestMapReadsFromNilPolicyBarrier(t *testing.T) {
	p := makePipeline(t, 20000, 2, 6, 59)
	cfg := Config{Workers: 2, Batch: 8, Queue: 2}
	eng, err := NewEngine(p.ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	src := &barrierSource{reads: p.reads, interval: 25}
	st, err := eng.MapReadsFrom(src, acc, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mapped+st.Unmapped != int64(len(p.reads)) {
		t.Errorf("accounted for %d reads, want %d", st.Mapped+st.Unmapped, len(p.reads))
	}
}

func compareAccums(t *testing.T, want, got genome.Accumulator, length int) {
	t.Helper()
	va, vb := view(t, want), view(t, got)
	for pos := 0; pos < length; pos += 101 {
		a, b := va.Total(pos), vb.Total(pos)
		if math.Abs(a-b) > 1e-3*(1+a) {
			t.Fatalf("pos %d: accumulated mass %v vs %v", pos, b, a)
		}
	}
}
