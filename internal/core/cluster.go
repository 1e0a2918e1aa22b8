package core

import (
	"fmt"
	"math"

	"gnumap/internal/cluster"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
)

// The paper's two MPI modes (§VI Step 1):
//
//   - Read-split ("shared memory" in Figure 4): every node holds the
//     whole genome and accumulator, maps a 1/N share of the reads, and
//     the accumulators are folded into the root's (RunReadSplit,
//     cluster_stream.go). Minimal communication, maximal memory.
//
//   - Genome-split ("spread memory" in Figure 4): every node holds a
//     1/N slice of the genome and accumulator, and every node maps all
//     reads against its slice. Posterior-location normalization needs
//     the *global* likelihood mass of each read, so nodes exchange
//     per-read likelihood sums every batch (three Allreduce rounds: a
//     max and a sum giving a distributed log-sum-exp, then a
//     survivor-mass sum so post-threshold renormalization matches the
//     shared-memory engine). Alignments
//     spilling over a slice boundary route their out-of-range
//     contributions to the owning node point-to-point at the end.
//     Minimal memory, more communication — which is why the paper's
//     Figure 4 shows it processing fewer sequences per second.

// GenomeSlice returns the [lo, hi) slice of the reference owned by a
// rank in genome-split mode.
func GenomeSlice(refLen, size, rank int) (lo, hi int) {
	return refLen * rank / size, refLen * (rank + 1) / size
}

// spillBatch flattens boundary-crossing contributions for transport:
// groups of 6 float64s (position, five channel values), weight already
// applied.
type spillBatch []float64

// genomeSplitBatch is the number of reads per genome-split
// normalization round: each batch costs three Allreduce collectives (a
// max, a sum, and a post-threshold survivor-mass sum, each over one
// float64 per read).
const genomeSplitBatch = 256

// RunGenomeSplit executes genome-split mapping on one cluster node.
// Every rank maps *all* reads against its genome slice; per-read
// location posteriors are normalized globally via per-batch Allreduce
// (log-sum-exp split into a max round and a sum round), and
// contributions spilling outside the slice are routed to their owning
// rank at the end. Returns the local slice accumulator, the owned
// range, and global Stats.
func RunGenomeSplit(c *cluster.Comm, ref *genome.Reference, reads []*fastq.Read, mode genome.Mode, cfg Config) (genome.Accumulator, int, int, Stats, error) {
	var st Stats
	cfg = cfg.withDefaults()
	size, rank := c.Size(), c.Rank()
	L := ref.Len()
	// Validate globally-visible conditions identically on every rank:
	// SPMD code must not have one rank error out of a collective while
	// the others enter it.
	if L < size {
		return nil, 0, 0, st, fmt.Errorf("core: %d nodes for a %d-base reference leaves empty slices", size, L)
	}
	lo, hi := GenomeSlice(L, size, rank)
	// Index an extended slice so boundary-straddling reads are found;
	// ownership of a location is decided by its seed start.
	maxReadLen := 0
	for _, rd := range reads {
		if len(rd.Seq) > maxReadLen {
			maxReadLen = len(rd.Seq)
		}
	}
	ext := maxReadLen + cfg.Pad + 1
	idxLo, idxHi := lo-ext, hi+ext
	if idxLo < 0 {
		idxLo = 0
	}
	if idxHi > L {
		idxHi = L
	}
	eng, err := newEngineSlice(ref, idxLo, idxHi, cfg)
	if err != nil {
		return nil, 0, 0, st, err
	}
	eng.ownLo, eng.ownHi = lo, hi

	// Genome-split drives one serial mapper per rank (the Allreduce
	// rounds are the bottleneck, not lock contention), so the striped
	// accumulator is always the right layout here.
	acc, err := genome.New(mode, hi-lo)
	if err != nil {
		return nil, 0, 0, st, err
	}
	m, err := eng.getMapper()
	if err != nil {
		return nil, 0, 0, st, err
	}
	spills := make(map[int]spillBatch) // destination rank -> flattened

	for base := 0; base < len(reads); base += genomeSplitBatch {
		end := base + genomeSplitBatch
		if end > len(reads) {
			end = len(reads)
		}
		b := end - base
		// Phase 1: local alignment of the batch.
		batchLocs := make([][]location, b)
		localMax := make([]float64, b)
		// keep: the round's locations must outlive the Allreduce rounds.
		err := m.mapBatch(reads[base:end], true, func(i int, locs []location) error {
			batchLocs[i], localMax[i] = locs, math.Inf(-1)
			for _, l := range locs {
				if l.logLik > localMax[i] {
					localMax[i] = l.logLik
				}
			}
			return nil
		})
		if err != nil {
			return nil, 0, 0, st, err
		}
		// Phase 2: global normalization (distributed log-sum-exp).
		gmaxAny, err := c.Allreduce(localMax, cluster.MaxFloat64s)
		if err != nil {
			return nil, 0, 0, st, err
		}
		gmax := gmaxAny.([]float64)
		localSum := make([]float64, b)
		for i := 0; i < b; i++ {
			if math.IsInf(gmax[i], -1) {
				continue
			}
			for _, l := range batchLocs[i] {
				localSum[i] += math.Exp(l.logLik - gmax[i])
			}
		}
		gsumAny, err := c.Allreduce(localSum, cluster.SumFloat64s)
		if err != nil {
			return nil, 0, 0, st, err
		}
		gsum := gsumAny.([]float64)
		// Phase 2b: survivor-mass round. The shared-memory engine
		// renormalizes the weights surviving the MinPosterior threshold
		// so each mapped read deposits unit mass; mirroring that needs
		// the *global* surviving mass, hence a third Allreduce.
		localSurv := make([]float64, b)
		if !cfg.BestHitOnly {
			for i := 0; i < b; i++ {
				if math.IsInf(gmax[i], -1) || gsum[i] <= 0 {
					continue
				}
				for _, l := range batchLocs[i] {
					if w := math.Exp(l.logLik-gmax[i]) / gsum[i]; w >= cfg.MinPosterior {
						localSurv[i] += w
					}
				}
			}
		}
		gsurvAny, err := c.Allreduce(localSurv, cluster.SumFloat64s)
		if err != nil {
			return nil, 0, 0, st, err
		}
		gsurv := gsurvAny.([]float64)
		// Phase 3: apply weighted contributions; spill out-of-range
		// positions to their owners.
		for i := 0; i < b; i++ {
			if rank == 0 { // read-level stats counted once globally
				if math.IsInf(gmax[i], -1) || gsum[i] <= 0 {
					st.Unmapped++
				} else {
					st.Mapped++
				}
			}
			for _, l := range batchLocs[i] {
				var w float64
				if cfg.BestHitOnly {
					if l.logLik == gmax[i] {
						w = 1
					}
				} else if gsum[i] > 0 {
					w = math.Exp(l.logLik-gmax[i]) / gsum[i]
					if w < cfg.MinPosterior {
						w = 0
					} else if gsurv[i] > 0 && gsurv[i] < 1 {
						w /= gsurv[i]
					}
				}
				if w == 0 {
					continue
				}
				st.Locations++
				applySliceContribution(acc, lo, hi, L, size, l, w, spills)
			}
		}
	}
	// The genome-split path drives mapBatch directly rather than going
	// through MapReads, so mirror its read-level metric accounting here
	// (local counts: mapped/unmapped are nonzero only at rank 0, which
	// counts each read once globally).
	if m.met != nil {
		m.met.mapped.Add(st.Mapped)
		m.met.unmapped.Add(st.Unmapped)
		m.met.locations.Add(st.Locations)
	}
	// Boundary exchange: everyone sends every other rank its spill
	// (possibly empty), then receives.
	const spillTag = 17
	for r := 0; r < size; r++ {
		if r == rank {
			continue
		}
		if err := c.Send(r, spillTag, []float64(spills[r])); err != nil {
			return nil, 0, 0, st, err
		}
	}
	for r := 0; r < size; r++ {
		if r == rank {
			continue
		}
		v, err := c.Recv(r, spillTag)
		if err != nil {
			return nil, 0, 0, st, err
		}
		incoming := v.([]float64)
		if len(incoming)%6 != 0 {
			return nil, 0, 0, st, fmt.Errorf("core: malformed spill of %d floats from rank %d", len(incoming), r)
		}
		for off := 0; off < len(incoming); off += 6 {
			pos := int(incoming[off])
			var vec genome.Vec
			copy(vec[:], incoming[off+1:off+6])
			acc.AddRange(pos-lo, []genome.Vec{vec}, 1)
		}
	}
	// Global stats.
	sv, err := c.Allreduce([]float64{
		float64(st.Mapped), float64(st.Unmapped), float64(st.Locations),
	}, cluster.SumFloat64s)
	if err != nil {
		return nil, 0, 0, st, err
	}
	gs := sv.([]float64)
	st = Stats{Mapped: int64(gs[0]), Unmapped: int64(gs[1]), Locations: int64(gs[2])}
	return acc, lo, hi, st, nil
}

// applySliceContribution adds the in-range part of a weighted location
// to the local accumulator and buffers the rest for the owning ranks.
func applySliceContribution(acc genome.Accumulator, lo, hi, L, size int, l location, w float64, spills map[int]spillBatch) {
	start := l.windowStart
	endPos := start + len(l.contribs)
	if start >= lo && endPos <= hi {
		acc.AddRange(start-lo, l.contribs, w)
		return
	}
	// Split: in-range part via AddRange (clipped), out-of-range
	// positions spilled individually.
	acc.AddRange(start-lo, l.contribs, w)
	for k, vec := range l.contribs {
		pos := start + k
		if pos >= lo && pos < hi {
			continue
		}
		if pos < 0 || pos >= L {
			continue
		}
		owner := ownerOf(pos, L, size)
		var weighted genome.Vec
		nonzero := false
		for ch := range vec {
			weighted[ch] = vec[ch] * w
			if weighted[ch] != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			continue
		}
		sp := spills[owner]
		sp = append(sp, float64(pos))
		sp = append(sp, weighted[:]...)
		spills[owner] = sp
	}
}

// ownerOf returns the rank owning a global position under GenomeSlice.
func ownerOf(pos, L, size int) int {
	// GenomeSlice gives rank r the range [L·r/size, L·(r+1)/size); the
	// inverse is floor((pos·size + size - 1 ... )) — search locally to
	// stay exactly consistent with integer division.
	r := pos * size / L
	for r > 0 {
		lo, _ := GenomeSlice(L, size, r)
		if pos >= lo {
			break
		}
		r--
	}
	for r < size-1 {
		_, hi := GenomeSlice(L, size, r)
		if pos < hi {
			break
		}
		r++
	}
	return r
}
