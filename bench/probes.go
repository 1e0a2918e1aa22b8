package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"gnumap"
	"gnumap/internal/core"
	"gnumap/internal/dna"
	"gnumap/internal/genome"
	"gnumap/internal/kmer"
	"gnumap/internal/phmm"
	"gnumap/internal/pwm"
)

// Probe sizes: how many of the workload's first reads are replayed
// through the cheap layers and through the Pair-HMM, and how many
// AddRange calls time an accumulator.
const (
	probeReads      = 8000
	probeAlignReads = 2000
	probeAdds       = 200_000
)

// probeResult is each layer's unit cost, measured single-threaded from
// outside through the layer's public functions on the workload's own
// reads and reference.
type probeResult struct {
	FastqNsPerRead, FastqMBPerS float64
	PwmNsPerRead                float64
	// BuildS is kmer.Build for the default k (zero when the workload
	// mmaps its index).
	BuildS                                                    float64
	LookupNsPerRead, HitsPerRead, MaskedPerRead, CandsPerRead float64
	// BatchNsPerCell and ScalarNsPerCell are alignment plus posterior
	// contributions per DP cell, over the candidate windows the engine's
	// binning sends to each kernel; ScalarCellFrac is the scalar
	// kernel's share of the replayed cells.
	BatchNsPerCell, ScalarNsPerCell, ScalarCellFrac float64
	AllocS                                          float64
	AddStripedNs, AddShardNs                        float64
	FreezeS, EncodeS, DecodeS                       float64
}

// alignJob is one kernel call of the replay: a bin of same-shape
// candidate windows (one lane = scalar kernel, more = batched kernel).
type alignJob struct {
	xs   []*pwm.Matrix
	ys   []dna.Seq
	diag int
}

// probe replays the first reads of the workload through each layer.
func (s *session) probe() (*probeResult, error) {
	pr := &probeResult{}
	contigs, err := gnumap.LoadReference(s.d.Ref)
	if err != nil {
		return nil, err
	}
	ref, err := genome.NewReference(contigs)
	if err != nil {
		return nil, err
	}

	// fastq: parse.
	src, err := gnumap.OpenReads(s.d.Reads, gnumap.Sanger)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	var reads []*gnumap.Read
	var bytes int
	t0 := time.Now()
	for len(reads) < probeReads {
		rd, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		reads = append(reads, rd)
	}
	el := time.Since(t0)
	if len(reads) == 0 {
		return nil, fmt.Errorf("no reads to replay")
	}
	for _, rd := range reads {
		bytes += len(rd.Name) + 2*len(rd.Seq) + 6 // "@name\nseq\n+\nqual\n"
	}
	n := float64(len(reads))
	pr.FastqNsPerRead = float64(el.Nanoseconds()) / n
	pr.FastqMBPerS = float64(bytes) / 1e6 / el.Seconds()

	// pwm: both strands' matrices, as mapRead fills them.
	fwd := make([]pwm.Matrix, len(reads))
	rev := make([]pwm.Matrix, len(reads))
	t0 = time.Now()
	for i, rd := range reads {
		if err := fwd[i].FillFromRead(rd); err != nil {
			return nil, err
		}
		rev[i].FillReverseComplementOf(&fwd[i])
	}
	pr.PwmNsPerRead = float64(time.Since(t0).Nanoseconds()) / n

	// kmer: the index the workload uses.
	var idx kmer.SeedIndex
	if s.d.Index != "" {
		ix, err := gnumap.OpenSeedIndex(s.d.Index, contigs)
		if err != nil {
			return nil, err
		}
		defer ix.Close()
		idx = ix
	} else {
		t0 = time.Now()
		if idx, err = kmer.Build(ref.Seq(), kmer.DefaultK); err != nil {
			return nil, err
		}
		pr.BuildS = time.Since(t0).Seconds()
	}
	cfg := core.Config{K: idx.K()}.Resolved()
	copt := kmer.CandidateOptions{
		MaxCandidates: cfg.MaxCandidates, MinVotes: cfg.MinSeedVotes, MaxBucket: cfg.MaxBucket, Slack: 2,
	}
	var buf kmer.CandidateBuf
	var hits, masked, cands int64
	t0 = time.Now()
	for i := range reads {
		for _, m := range [2]*pwm.Matrix{&fwd[i], &rev[i]} {
			cands += int64(len(idx.CandidatesInto(m.Calls(), copt, &buf)))
			hits += buf.Stats.Hits
			masked += buf.Stats.Masked
		}
	}
	pr.LookupNsPerRead = float64(time.Since(t0).Nanoseconds()) / n
	pr.HitsPerRead, pr.MaskedPerRead, pr.CandsPerRead = float64(hits)/n, float64(masked)/n, float64(cands)/n

	// phmm: bin candidate windows the way the engine does, then time
	// each kernel over its bins.
	jobs, starts := alignJobs(ref, idx, cfg, copt, reads, fwd, rev)
	if err := pr.timeKernels(cfg, jobs); err != nil {
		return nil, err
	}

	// genome: allocation, the two write strategies, state codec.
	cfg.Workers = 1
	t0 = time.Now()
	if _, err := core.NewAccumulator(genome.Norm, ref.Len(), cfg); err != nil {
		return nil, err
	}
	pr.AllocS = time.Since(t0).Seconds()
	runtime.GC()
	striped, err := genome.New(genome.Norm, ref.Len())
	if err != nil {
		return nil, err
	}
	sharded, err := genome.NewSharded(genome.Norm, ref.Len())
	if err != nil {
		return nil, err
	}
	window := len(reads[0].Seq) + 2*cfg.Pad
	pr.AddStripedNs = timeAdds(striped, starts, window)
	pr.AddShardNs = timeAdds(sharded.WorkerShard(), starts, window)
	t0 = time.Now()
	if _, err := genome.Freeze(striped); err != nil {
		return nil, err
	}
	pr.FreezeS = time.Since(t0).Seconds()
	st := striped.(genome.Stateful) // every NORM accumulator is Stateful
	t0 = time.Now()
	state, err := st.State()
	if err != nil {
		return nil, err
	}
	pr.EncodeS = time.Since(t0).Seconds()
	t0 = time.Now()
	if err := st.LoadStateBytes(state); err != nil {
		return nil, err
	}
	pr.DecodeS = time.Since(t0).Seconds()
	return pr, nil
}

// alignJobs reproduces mapRead's candidate handling for the first
// probeAlignReads reads — both strands' candidates, the vote-fraction
// cut relative to the read's best, padded windows, bins keyed by
// (window length, diagonal) cut into PhmmBatch lanes — and returns the
// kernel calls plus every candidate window's start (where accumulator
// writes land).
func alignJobs(ref *genome.Reference, idx kmer.SeedIndex, cfg core.Config, copt kmer.CandidateOptions,
	reads []*gnumap.Read, fwd, rev []pwm.Matrix) (jobs []alignJob, starts []int) {

	type cand struct {
		m *pwm.Matrix
		c kmer.Candidate
	}
	var buf kmer.CandidateBuf
	for i := range reads {
		if i >= probeAlignReads {
			break
		}
		var cs []cand
		best := int32(0)
		for _, m := range [2]*pwm.Matrix{&fwd[i], &rev[i]} {
			for _, c := range idx.CandidatesInto(m.Calls(), copt, &buf) {
				cs = append(cs, cand{m, c})
				if c.Votes > best {
					best = c.Votes
				}
			}
		}
		cut := int32(cfg.MinVoteFraction * float64(best))
		type key struct{ wlen, diag int }
		bins := map[key]*alignJob{}
		var order []key
		for _, c := range cs {
			if c.c.Votes < cut {
				continue
			}
			start := int(c.c.Start)
			win, clipped := ref.Window(start-cfg.Pad, len(reads[i].Seq)+2*cfg.Pad)
			if len(win) == 0 {
				continue
			}
			k := key{len(win), start - clipped}
			j := bins[k]
			if j == nil || len(j.xs) == cfg.PhmmBatch {
				if j != nil {
					jobs = append(jobs, *j)
				} else {
					order = append(order, k)
				}
				j = &alignJob{diag: k.diag}
				bins[k] = j
			}
			j.xs = append(j.xs, c.m)
			j.ys = append(j.ys, win)
			starts = append(starts, clipped)
		}
		for _, k := range order {
			jobs = append(jobs, *bins[k])
		}
	}
	return jobs, starts
}

// timeKernels runs the one-lane jobs through the scalar kernel and the
// rest through the batched kernel, each followed by the posterior
// contributions the engine extracts from every alignment.
func (pr *probeResult) timeKernels(cfg core.Config, jobs []alignJob) error {
	scalar, err := phmm.NewAligner(cfg.PHMM, cfg.AlignMode)
	if err != nil {
		return err
	}
	batch, err := phmm.NewBatchAligner(cfg.PHMM, cfg.AlignMode)
	if err != nil {
		return err
	}
	band := cfg.EffectiveBand()
	var contribs []genome.Vec
	var totals []float64
	scratch := func(n int) ([]genome.Vec, []float64) {
		if cap(contribs) < n {
			contribs, totals = make([]genome.Vec, n), make([]float64, n)
		}
		return contribs[:n], totals[:n]
	}
	var scalarT, batchT time.Duration
	for _, j := range jobs {
		t0 := time.Now()
		if len(j.xs) == 1 {
			res, err := scalar.AlignBanded(j.xs[0], j.ys[0], j.diag, band)
			if err == nil {
				c, t := scratch(len(j.ys[0]))
				err = res.ContributionsInto(cfg.Attribution, c, t)
			}
			if err != nil && err != phmm.ErrNoAlignment {
				return err
			}
			scalarT += time.Since(t0)
			continue
		}
		results, err := batch.AlignBatch(j.xs, j.ys, j.diag, band)
		if err != nil {
			return err
		}
		for l := range results {
			if results[l].Err != nil {
				continue
			}
			c, t := scratch(len(j.ys[l]))
			if err := results[l].ContributionsInto(cfg.Attribution, c, t); err != nil {
				return err
			}
		}
		batchT += time.Since(t0)
	}
	sc, bc := scalar.CellsComputed(), batch.CellsComputed()
	if sc > 0 {
		pr.ScalarNsPerCell = float64(scalarT.Nanoseconds()) / float64(sc)
	}
	if bc > 0 {
		pr.BatchNsPerCell = float64(batchT.Nanoseconds()) / float64(bc)
	}
	if sc+bc > 0 {
		pr.ScalarCellFrac = float64(sc) / float64(sc+bc)
	}
	return nil
}

// timeAdds returns nanoseconds per AddRange of a window-long range at
// the replayed candidate starts, cycling through them until probeAdds
// calls have been made.
func timeAdds(acc genome.Accumulator, starts []int, window int) float64 {
	if len(starts) == 0 {
		return 0
	}
	zs := make([]genome.Vec, window)
	for i := range zs {
		zs[i][i%dna.NumBases] = 1
	}
	t0 := time.Now()
	for i := 0; i < probeAdds; i++ {
		acc.AddRange(starts[i%len(starts)], zs, 0.5)
	}
	return float64(time.Since(t0).Nanoseconds()) / probeAdds
}
