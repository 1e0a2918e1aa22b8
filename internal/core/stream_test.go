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
	eng, err := NewEngine(p.ref, Config{Workers: 4, batch: 1})
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
	if _, err := eng.MapReads(reads, acc); err != boom {
		t.Fatalf("MapReads error = %v, want the poisoned-read error", err)
	}
	if n := processed.Load(); n > total/2 {
		t.Errorf("workers processed %d/%d reads after the failure latched; stop latch not honored", n, total)
	}
}

// TestMapReadsIsSerialAtOneWorker pins what replaced the slice worker
// pool: MapReads is MapReadsFrom over a slice source, and at Workers=1
// the pipeline maps reads in source order — so the accumulator bytes
// equal those of a plain serial loop over the reads.
func TestMapReadsIsSerialAtOneWorker(t *testing.T) {
	p := makePipeline(t, 30000, 3, 8, 43)
	eng, err := NewEngine(p.ref, Config{Workers: 1})
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
	sink := m.accumulate(serial, &wantSt)
	for _, rd := range p.reads {
		if err := m.mapRead(rd, sink); err != nil {
			t.Fatal(err)
		}
	}
	want := state(serial)

	slice := newAcc()
	gotSt, err := eng.MapReads(p.reads, slice)
	if err != nil {
		t.Fatal(err)
	}
	if gotSt.Mapped != wantSt.Mapped || gotSt.Unmapped != wantSt.Unmapped || gotSt.Locations != wantSt.Locations {
		t.Errorf("stats diverge: MapReads %+v vs serial loop %+v", gotSt, wantSt)
	}
	if !bytes.Equal(state(slice), want) {
		t.Error("MapReads at Workers=1 is not byte-identical to a serial loop")
	}
}

// TestMapReadsFromMemoryBound asserts the documented bound via the
// observability gauge: a streaming run never holds more reads fed and
// unfinished than the pipe allows, (queueBatches + Workers) ·
// batchReads — on an input larger than the bound, so the run has to
// stream to keep it.
func TestMapReadsFromMemoryBound(t *testing.T) {
	p := makePipeline(t, 30000, 3, 8, 47)
	const workers = 4
	limit := (queueBatches + workers) * batchReads
	if len(p.reads) <= limit {
		t.Fatalf("%d reads do not exercise a bound of %d", len(p.reads), limit)
	}
	reg := obs.NewRegistry()
	eng, err := NewEngine(p.ref, Config{Workers: workers, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.MapReadsFrom(fastq.SliceSource(p.reads), acc, nil); err != nil {
		t.Fatal(err)
	}
	peak := reg.Gauge("stream.peak.resident.reads").Value()
	if peak <= 0 {
		t.Fatal("peak-resident gauge never set")
	}
	if peak > float64(limit) {
		t.Errorf("peak resident reads %v exceeds (queue+workers)*batch = %d", peak, limit)
	}
	if n := reg.Counter("stream.reads").Value(); n != int64(len(p.reads)) {
		t.Errorf("stream.reads = %d, want %d", n, len(p.reads))
	}
	wantBatches := int64((len(p.reads) + batchReads - 1) / batchReads)
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
// returned and terminates the run (no deadlock, no lost error). Batches
// of 8 put the failure after five batches went out, so workers are
// mapping when it comes.
func TestMapReadsFromSourceError(t *testing.T) {
	p := makePipeline(t, 20000, 1, 2, 53)
	boom := fmt.Errorf("disk on fire")
	src := &errAfterSource{reads: p.reads, n: 40, err: boom}
	reg := obs.NewRegistry()
	eng, err := NewEngine(p.ref, Config{Workers: 2, batch: 8, queue: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.MapReadsFrom(src, acc, nil)
	if err == nil || !errorContains(err, "disk on fire") {
		t.Fatalf("MapReadsFrom error = %v, want wrapped source error", err)
	}
	if n := reg.Counter("stream.batches").Value(); n == 0 {
		t.Error("no batch was fed before the source failed; the failure is not mid-stream")
	}
}

// TestMapReadsFromWorkerErrorStopsProducer checks that a worker failure
// unblocks and stops the dealer even when it is parked on a full work
// queue (the streaming analogue of the stop latch).
func TestMapReadsFromWorkerErrorStopsProducer(t *testing.T) {
	p := makePipeline(t, 20000, 1, 1, 59)
	const total = 400
	reads := make([]*fastq.Read, total)
	for i := range reads {
		reads[i] = p.reads[i%len(p.reads)]
	}
	eng, err := NewEngine(p.ref, Config{Workers: 2, batch: 1, queue: 1})
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
		_, mapErr = eng.MapReadsFrom(fastq.SliceSource(reads), acc, nil)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("MapReadsFrom did not return after a worker error (dealer deadlock?)")
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
	st, err := eng.MapReadsFrom(fastq.SliceSource(nil), acc, nil)
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
			acc, st, err := readSplit(c, p.ref, src, genome.Norm, Config{Workers: 2}, nil)
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
