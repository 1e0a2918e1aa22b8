package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gnumap/internal/cluster"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/obs"
)

// TestMapReadsStopLatch verifies that a worker failure stops the other
// workers from claiming further batches: with one poisoned read, slow
// healthy reads, and single-read batches, a latch-less pool would map
// nearly all reads before returning; the latch caps the overrun at
// roughly one in-flight batch per worker.
func TestMapReadsStopLatch(t *testing.T) {
	p := makePipeline(t, 20000, 1, 1, 31)
	const total = 200
	reads := make([]*fastq.Read, total)
	for i := range reads {
		reads[i] = p.reads[i%len(p.reads)]
	}
	eng, err := NewEngine(p.ref, Config{Workers: 4, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	var processed atomic.Int64
	boom := fmt.Errorf("poisoned read")
	eng.testMapErr = func(rd *fastq.Read) error {
		n := processed.Add(1)
		if n == 3 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	}
	acc, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.MapReads(reads, acc, 0); err != boom {
		t.Fatalf("MapReads error = %v, want the poisoned-read error", err)
	}
	if n := processed.Load(); n > total/2 {
		t.Errorf("workers processed %d/%d reads after the failure latched; stop latch not honored", n, total)
	}
}

// TestMapReadsIsSerialAtOneWorker pins what replaced the slice worker
// pool: MapReads is MapReadsFrom over a slice source, and at Workers=1
// the pipeline maps reads in source order — so the accumulator bytes
// equal those of a plain serial loop over the reads, whatever the
// batch and queue sizes.
func TestMapReadsIsSerialAtOneWorker(t *testing.T) {
	p := makePipeline(t, 30000, 3, 8, 43)
	eng, err := NewEngine(p.ref, Config{Workers: 1, Batch: 16, Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	state := func(acc genome.Accumulator) []byte {
		t.Helper()
		b, err := acc.State()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	newAcc := func() genome.Accumulator {
		t.Helper()
		acc, err := genome.New(genome.Norm, p.ref.Len())
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}

	serial := newAcc()
	m, err := eng.getMapper()
	if err != nil {
		t.Fatal(err)
	}
	var wantSt Stats
	sink := m.accumulate(serial, 0, &wantSt)
	for _, rd := range p.reads {
		if err := m.mapRead(rd, sink); err != nil {
			t.Fatal(err)
		}
	}
	want := state(serial)

	slice := newAcc()
	gotSt, err := eng.MapReads(p.reads, slice, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gotSt.Mapped != wantSt.Mapped || gotSt.Unmapped != wantSt.Unmapped || gotSt.Locations != wantSt.Locations {
		t.Errorf("stats diverge: MapReads %+v vs serial loop %+v", gotSt, wantSt)
	}
	if !bytes.Equal(state(slice), want) {
		t.Error("MapReads at Workers=1 is not byte-identical to a serial loop")
	}

	eng2, err := NewEngine(p.ref, Config{Workers: 1, Batch: 5, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := newAcc()
	if _, err := eng2.MapReadsFrom(fastq.SliceSource(p.reads), src, 0, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state(src), want) {
		t.Error("accumulator bytes at Workers=1 depend on batch/queue sizes")
	}
}

// TestMapReadsFromMemoryBound asserts the acceptance-criteria bound via
// the observability gauge: a streaming run never holds more resident
// reads than the free list allows — (Queue + Workers) · Batch, which is
// itself ≤ Workers · Batch · Queue for the configured values.
func TestMapReadsFromMemoryBound(t *testing.T) {
	p := makePipeline(t, 30000, 3, 8, 47)
	const (
		workers = 4
		batch   = 8
		queue   = 2
	)
	reg := obs.NewRegistry()
	eng, err := NewEngine(p.ref, Config{Workers: workers, Batch: batch, Queue: queue, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.MapReadsFrom(fastq.SliceSource(p.reads), acc, 0, nil); err != nil {
		t.Fatal(err)
	}
	peak := reg.Gauge("stream.peak.resident.reads").Value()
	if peak <= 0 {
		t.Fatal("peak-resident gauge never set")
	}
	if limit := float64((queue + workers) * batch); peak > limit {
		t.Errorf("peak resident reads %v exceeds free-list bound %v", peak, limit)
	}
	if limit := float64(workers * batch * queue); peak > limit {
		t.Errorf("peak resident reads %v exceeds workers*batch*queue = %v", peak, limit)
	}
	if n := reg.Counter("stream.reads").Value(); n != int64(len(p.reads)) {
		t.Errorf("stream.reads = %d, want %d", n, len(p.reads))
	}
	wantBatches := int64((len(p.reads) + batch - 1) / batch)
	if n := reg.Counter("stream.batches").Value(); n != wantBatches {
		t.Errorf("stream.batches = %d, want %d", n, wantBatches)
	}
}

// errAfterSource yields n reads then fails.
type errAfterSource struct {
	reads []*fastq.Read
	n     int
	err   error
}

func (s *errAfterSource) Next() (*fastq.Read, error) {
	if s.n <= 0 {
		return nil, s.err
	}
	s.n--
	return s.reads[s.n%len(s.reads)], nil
}

// TestMapReadsFromSourceError checks a mid-stream source failure is
// returned and terminates the run (no deadlock, no lost error).
func TestMapReadsFromSourceError(t *testing.T) {
	p := makePipeline(t, 20000, 1, 2, 53)
	boom := fmt.Errorf("disk on fire")
	src := &errAfterSource{reads: p.reads, n: 40, err: boom}
	eng, err := NewEngine(p.ref, Config{Workers: 2, Batch: 8, Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.MapReadsFrom(src, acc, 0, nil)
	if err == nil || !errorContains(err, "disk on fire") {
		t.Fatalf("MapReadsFrom error = %v, want wrapped source error", err)
	}
}

// TestMapReadsFromWorkerErrorStopsProducer checks that a worker failure
// unblocks and stops the producer even when it is parked on the free
// list or the work queue (the streaming analogue of the stop latch).
func TestMapReadsFromWorkerErrorStopsProducer(t *testing.T) {
	p := makePipeline(t, 20000, 1, 1, 59)
	const total = 400
	reads := make([]*fastq.Read, total)
	for i := range reads {
		reads[i] = p.reads[i%len(p.reads)]
	}
	eng, err := NewEngine(p.ref, Config{Workers: 2, Batch: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	var processed atomic.Int64
	boom := fmt.Errorf("poisoned read")
	eng.testMapErr = func(rd *fastq.Read) error {
		n := processed.Add(1)
		if n == 3 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	}
	acc, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var mapErr error
	go func() {
		defer close(done)
		_, mapErr = eng.MapReadsFrom(fastq.SliceSource(reads), acc, 0, nil)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("MapReadsFrom did not return after a worker error (producer deadlock?)")
	}
	if mapErr != boom {
		t.Fatalf("MapReadsFrom error = %v, want the poisoned-read error", mapErr)
	}
	if n := processed.Load(); n > total/2 {
		t.Errorf("processed %d/%d reads after the failure latched", n, total)
	}
}

// TestMapReadsFromEmptySource: zero reads is a clean no-op.
func TestMapReadsFromEmptySource(t *testing.T) {
	p := makePipeline(t, 10000, 1, 1, 61)
	eng, err := NewEngine(p.ref, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.MapReadsFrom(fastq.SliceSource(nil), acc, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mapped != 0 || st.Unmapped != 0 || st.Locations != 0 {
		t.Errorf("empty stream produced stats %+v", st)
	}
}

// TestRunReadSplitStreamMatchesRunReadSplit checks the dealt-shard
// cluster path reduces to the same accumulator as the pre-split slice
// path, at several node counts.
func TestRunReadSplitStreamMatchesRunReadSplit(t *testing.T) {
	p := makePipeline(t, 30000, 3, 8, 67)
	want := sharedBaseline(t, p, genome.Norm)

	for _, nodes := range []int{1, 2, 4} {
		var got genome.Accumulator
		var mu sync.Mutex
		err := cluster.Run(nodes, cluster.Channels, func(c *cluster.Comm) error {
			var src fastq.Source
			if c.Rank() == 0 {
				src = fastq.SliceSource(p.reads)
			}
			acc, st, err := readSplit(c, p.ref, src, genome.Norm, Config{Workers: 2, Batch: 8, Queue: 2}, nil)
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
			} else if acc != nil {
				return fmt.Errorf("non-root rank received an accumulator")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if got == nil {
			t.Fatalf("nodes=%d: no accumulator at root", nodes)
		}
		va, vb := view(t, want), view(t, got)
		for pos := 0; pos < p.ref.Len(); pos += 501 {
			a, b := va.Total(pos), vb.Total(pos)
			if math.Abs(a-b) > 1e-3*(1+a) {
				t.Fatalf("nodes=%d pos=%d: stream %v vs baseline %v", nodes, pos, b, a)
			}
		}
	}
}

// TestReadSplitFTMatchesStreamedBaseline (the inverted
// TestRunReadSplitStreamRejectsFT): a configured op deadline no longer
// refuses the streamed dealer — the same setup runs the one protocol
// with its ledger on and matches the shared-memory baseline.
func TestReadSplitFTMatchesStreamedBaseline(t *testing.T) {
	p := makePipeline(t, 10000, 1, 2, 71)
	want := sharedBaseline(t, p, genome.Norm)
	var got genome.Accumulator
	var mu sync.Mutex
	err := cluster.RunWithConfig(2, cluster.RunConfig{Kind: cluster.Channels, OpTimeout: 5 * time.Second}, func(c *cluster.Comm) error {
		acc, st, err := readSplit(c, p.ref, fastq.SliceSource(p.reads), genome.Norm, Config{Workers: 1}, nil)
		if err != nil {
			return err
		}
		if st.Mapped+st.Unmapped != int64(len(p.reads)) || st.Degraded() {
			return fmt.Errorf("rank %d: stats %+v for %d reads", c.Rank(), st, len(p.reads))
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
	va, vb := view(t, want), view(t, got)
	for pos := 0; pos < p.ref.Len(); pos += 301 {
		a, b := va.Total(pos), vb.Total(pos)
		if math.Abs(a-b) > 1e-3*(1+a) {
			t.Fatalf("pos=%d: FT stream %v vs baseline %v", pos, b, a)
		}
	}
}

func errorContains(err error, sub string) bool {
	return err != nil && strings.Contains(err.Error(), sub)
}
