package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"gnumap/internal/cluster"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/snp"
)

// sharedBaseline maps the pipeline's reads with the one-process engine.
func sharedBaseline(t *testing.T, p *pipeline, mode genome.Mode) genome.Accumulator {
	t.Helper()
	eng, err := NewEngine(p.ref, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := genome.New(mode, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.MapReads(p.reads, acc, 0); err != nil {
		t.Fatal(err)
	}
	return acc
}

// readSplit runs one rank of a read-split run the way gnumap.Pipeline
// does — the rank's own engine and accumulator (rank 0's preloaded with
// resume, when given) through RunReadSplit — and hands rank 0 its
// accumulator back, nil elsewhere.
func readSplit(c *cluster.Comm, ref *genome.Reference, src fastq.Source, mode genome.Mode, cfg Config, pol *CheckpointPolicy, resume ...[]byte) (genome.Accumulator, Stats, error) {
	eng, err := NewEngine(ref, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	acc, err := genome.New(mode, ref.Len())
	if err != nil {
		return nil, Stats{}, err
	}
	if c.Rank() == 0 {
		for _, state := range resume {
			if err := acc.LoadStateBytes(state); err != nil {
				return nil, Stats{}, err
			}
		}
	}
	st, err := RunReadSplit(c, eng, acc, src, pol)
	if c.Rank() != 0 || (err != nil && !errors.Is(err, ErrStopped)) {
		return nil, st, err
	}
	return acc, st, err
}

func TestReadSplitMatchesSharedMemory(t *testing.T) {
	p := makePipeline(t, 30000, 3, 8, 41)
	want := sharedBaseline(t, p, genome.Norm)

	for _, nodes := range []int{1, 2, 4} {
		var got genome.Accumulator
		var mu sync.Mutex
		err := cluster.Run(nodes, cluster.Channels, func(c *cluster.Comm) error {
			acc, st, err := readSplit(c, p.ref, fastq.SliceSource(p.reads), genome.Norm, Config{Workers: 1}, nil)
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
				t.Fatalf("nodes=%d pos=%d: %v vs %v", nodes, pos, b, a)
			}
		}
	}
}

func TestReadSplitOverTCP(t *testing.T) {
	p := makePipeline(t, 15000, 2, 6, 43)
	want := sharedBaseline(t, p, genome.Norm)
	var got genome.Accumulator
	var mu sync.Mutex
	err := cluster.Run(3, cluster.TCP, func(c *cluster.Comm) error {
		acc, _, err := readSplit(c, p.ref, fastq.SliceSource(p.reads), genome.Norm, Config{Workers: 1}, nil)
		if err != nil {
			return err
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
			t.Fatalf("pos=%d: %v vs %v", pos, b, a)
		}
	}
}

func TestReadSplitDiscretizedModes(t *testing.T) {
	p := makePipeline(t, 15000, 2, 6, 47)
	for _, mode := range []genome.Mode{genome.CharDisc, genome.CentDisc} {
		want := sharedBaseline(t, p, mode)
		var got genome.Accumulator
		var mu sync.Mutex
		err := cluster.Run(2, cluster.Channels, func(c *cluster.Comm) error {
			acc, _, err := readSplit(c, p.ref, fastq.SliceSource(p.reads), mode, Config{Workers: 1}, nil)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				mu.Lock()
				got = acc
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		// Discretized modes accumulate rounding differences between the
		// merged and sequential orders; totals must still agree well.
		va, vb := view(t, want), view(t, got)
		for pos := 0; pos < p.ref.Len(); pos += 401 {
			a, b := va.Total(pos), vb.Total(pos)
			if math.Abs(a-b) > 0.05*(1+a) {
				t.Fatalf("%v pos=%d: merged %v vs sequential %v", mode, pos, b, a)
			}
		}
	}
}

// collectGenomeSplit runs genome-split mapping and stitches each node's
// slice back into one full-length accumulator for comparison.
func collectGenomeSplit(t *testing.T, p *pipeline, nodes int, kind cluster.TransportKind, cfg Config) genome.Accumulator {
	t.Helper()
	type part struct {
		lo, hi int
		acc    genome.Accumulator
	}
	parts := make([]part, nodes)
	var mu sync.Mutex
	err := cluster.Run(nodes, kind, func(c *cluster.Comm) error {
		acc, lo, hi, st, err := RunGenomeSplit(c, p.ref, fastq.SliceSource(p.reads), genome.Norm, cfg)
		if err != nil {
			return err
		}
		if st.Mapped+st.Unmapped != int64(len(p.reads)) {
			return fmt.Errorf("stats don't cover all reads: %+v", st)
		}
		mu.Lock()
		parts[c.Rank()] = part{lo: lo, hi: hi, acc: acc}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range parts {
		fz := view(t, pt.acc)
		for pos := pt.lo; pos < pt.hi; pos++ {
			v := fz.Vector(pos - pt.lo)
			full.AddRange(pos, []genome.Vec{v}, 1)
		}
	}
	return full
}

func TestGenomeSplitMatchesSharedMemory(t *testing.T) {
	p := makePipeline(t, 30000, 3, 8, 53)
	want := sharedBaseline(t, p, genome.Norm)
	for _, nodes := range []int{1, 2, 4} {
		got := collectGenomeSplit(t, p, nodes, cluster.Channels, Config{Workers: 1})
		va, vb := view(t, want), view(t, got)
		for pos := 0; pos < p.ref.Len(); pos += 251 {
			a, b := va.Total(pos), vb.Total(pos)
			if math.Abs(a-b) > 1e-3*(1+a) {
				t.Fatalf("nodes=%d pos=%d: genome-split %v vs shared %v", nodes, pos, b, a)
			}
		}
	}
}

func TestGenomeSplitSNPsMatch(t *testing.T) {
	p := makePipeline(t, 30000, 4, 12, 59)
	want := sharedBaseline(t, p, genome.Norm)
	wantCalls, _, err := snp.CallAll(p.ref, want, snp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := collectGenomeSplit(t, p, 3, cluster.Channels, Config{Workers: 1})
	gotCalls, _, err := snp.CallAll(p.ref, got, snp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(wantCalls) != len(gotCalls) {
		t.Fatalf("%d calls vs %d", len(gotCalls), len(wantCalls))
	}
	for i := range wantCalls {
		if wantCalls[i].GlobalPos != gotCalls[i].GlobalPos || wantCalls[i].Allele != gotCalls[i].Allele {
			t.Fatalf("call %d differs: %+v vs %+v", i, gotCalls[i], wantCalls[i])
		}
	}
	m := snp.Evaluate(gotCalls, p.cat)
	if m.TP < 3 {
		t.Errorf("genome-split recovered %d/%d", m.TP, len(p.cat))
	}
}

func TestGenomeSplitBoundaryStraddlingReads(t *testing.T) {
	// A small genome with 4 nodes: slice boundaries every ~1250 bases;
	// plenty of reads straddle them, exercising the spill exchange.
	p := makePipeline(t, 5000, 1, 20, 61)
	want := sharedBaseline(t, p, genome.Norm)
	got := collectGenomeSplit(t, p, 4, cluster.Channels, Config{Workers: 1})
	// Check positions tightly around every boundary.
	va, vb := view(t, want), view(t, got)
	for _, boundary := range []int{1250, 2500, 3750} {
		for pos := boundary - 70; pos < boundary+70; pos++ {
			if pos < 0 || pos >= p.ref.Len() {
				continue
			}
			a, b := va.Total(pos), vb.Total(pos)
			if math.Abs(a-b) > 1e-3*(1+a) {
				t.Fatalf("boundary %d pos %d: genome-split %v vs shared %v", boundary, pos, b, a)
			}
		}
	}
}

func TestGenomeSplitTooManyNodes(t *testing.T) {
	p := makePipeline(t, 5000, 1, 2, 67)
	_ = p
	err := cluster.Run(3, cluster.Channels, func(c *cluster.Comm) error {
		tiny, err := genome.NewSingleContig("t", p.ref.Seq()[:2])
		if err != nil {
			return err
		}
		_, _, _, _, err = RunGenomeSplit(c, tiny, fastq.SliceSource(p.reads), genome.Norm, Config{})
		if err == nil {
			return fmt.Errorf("empty slice accepted")
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

func TestOwnerOfConsistent(t *testing.T) {
	for _, tc := range []struct{ L, size int }{{100, 3}, {999, 7}, {5000, 4}, {10, 10}} {
		for pos := 0; pos < tc.L; pos++ {
			r := ownerOf(pos, tc.L, tc.size)
			lo, hi := GenomeSlice(tc.L, tc.size, r)
			if pos < lo || pos >= hi {
				t.Fatalf("ownerOf(%d, %d, %d) = %d, but slice is [%d,%d)", pos, tc.L, tc.size, r, lo, hi)
			}
		}
	}
}

func TestGenomeSliceCoversAll(t *testing.T) {
	for _, tc := range []struct{ L, size int }{{100, 3}, {101, 4}, {5, 5}} {
		prev := 0
		for r := 0; r < tc.size; r++ {
			lo, hi := GenomeSlice(tc.L, tc.size, r)
			if lo != prev {
				t.Fatalf("gap before rank %d: %d vs %d", r, lo, prev)
			}
			prev = hi
		}
		if prev != tc.L {
			t.Fatalf("slices end at %d, want %d", prev, tc.L)
		}
	}
}
