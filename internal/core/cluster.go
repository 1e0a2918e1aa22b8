package core

import (
	"encoding/gob"
	"fmt"
	"time"

	"gnumap/internal/cluster"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
)

func init() {
	gob.Register([]*fastq.Read{})
	gob.Register(batchLogLiks{})
	gob.Register([]batchLogLiks{})
}

// The paper's two MPI modes (§VI Step 1) are two placements of one
// algorithm:
//
//   - Read-split ("shared memory" in Figure 4): every node holds the
//     whole genome and accumulator, maps a 1/N share of the reads, and
//     the accumulators are folded into the root's (RunReadSplit,
//     cluster_stream.go). Minimal communication, maximal memory.
//
//   - Genome-split ("spread memory" in Figure 4): every node owns a 1/N
//     slice of the run's one accumulator — the pipeline's — and maps all
//     reads, aligning only the candidates whose seed start falls in its
//     slice. It is the only rank that writes the slice, so when the run
//     ends the accumulator holds every slice with nothing to gather or
//     stitch (RunGenomeSplit). Seeding runs against the run's one
//     whole-genome index (the simulated ranks share one process, as
//     read-split's do), so the seed filters — MaxBucket, the vote cut,
//     MaxCandidates — decide exactly what they decide in one process,
//     and the ranks together align exactly its locations. Rank 0 owns
//     the read stream and broadcasts it a batch at a time, so no rank
//     ever holds more than one batch. A read's posterior weights need
//     the likelihoods of its locations on every slice, so after mapping
//     a batch the ranks meet in ONE exchange: each contributes the
//     log-likelihoods of the locations it accepted, per read, and
//     receives everyone's; concatenated in rank order they are the input
//     of the engine's own weights — thresholding, renormalization,
//     best-hit selection and the mapped/unmapped/locations counts are
//     the shared-memory code run on every rank with the same input, so
//     every rank also ends up with the global Stats. Alignments spilling
//     over a slice boundary route their out-of-range contributions to
//     the owning node point-to-point at the end, which applies them to
//     its slice. Minimal memory, more communication — which is why the
//     paper's Figure 4 shows it processing fewer sequences per second.

// GenomeSlice returns the [lo, hi) slice of the reference owned by a
// rank in genome-split mode.
func GenomeSlice(refLen, size, rank int) (lo, hi int) {
	return refLen * rank / size, refLen * (rank + 1) / size
}

// spillBatch flattens boundary-crossing contributions for transport:
// groups of 6 float64s (position, five channel values), weight already
// applied.
type spillBatch []float64

// genomeSplitBatch is the number of reads rank 0 broadcasts, and the
// ranks normalize, at a time: a batch costs one broadcast and one
// exchange, and bounds the reads any rank holds.
const genomeSplitBatch = 256

// batchLogLiks is one rank's side of a batch's exchange: N[i] is the
// number of locations the rank accepted for the batch's i-th read and
// LL their log-likelihoods, flattened in read order.
type batchLogLiks struct {
	N  []int32
	LL []float64
}

// exchange is the per-batch collective: every rank contributes its side
// and receives all of them, indexed by rank.
func exchange(c *cluster.Comm, mine batchLogLiks) ([]batchLogLiks, error) {
	vals, err := c.Gather(0, mine)
	if err != nil {
		return nil, err
	}
	var all []batchLogLiks
	for r, v := range vals { // rank 0 only
		side, ok := v.(batchLogLiks)
		if !ok {
			return nil, fmt.Errorf("core: rank %d sent exchange payload %T", r, v)
		}
		all = append(all, side)
	}
	v, err := c.Broadcast(0, all)
	if err != nil {
		return nil, err
	}
	all, ok := v.([]batchLogLiks)
	if !ok || len(all) != c.Size() {
		return nil, fmt.Errorf("core: rank %d received exchange payload %T", c.Rank(), v)
	}
	return all, nil
}

// nextSplitBatch is the batch broadcast: rank 0 pulls up to
// genomeSplitBatch reads from src and every rank returns them; an empty
// batch is the end of the input. A source error fails rank 0, which
// tears the run down for the others.
func nextSplitBatch(c *cluster.Comm, src fastq.Source) ([]*fastq.Read, error) {
	var batch []*fastq.Read
	if c.Rank() == 0 {
		if src == nil {
			return nil, fmt.Errorf("core: rank 0 needs a read source")
		}
		var err error
		if batch, err = fastq.NextBatch(src, genomeSplitBatch); err != nil {
			return nil, fmt.Errorf("core: read source: %w", err)
		}
	}
	v, err := c.Broadcast(0, batch)
	if err != nil {
		return nil, err
	}
	batch, ok := v.([]*fastq.Read)
	if !ok {
		return nil, fmt.Errorf("core: rank %d received batch payload %T", c.Rank(), v)
	}
	return batch, nil
}

// RunGenomeSplit executes genome-split mapping on one cluster node (the
// protocol is described above) into acc, the run's one whole-genome
// accumulator, which every rank is handed. src must be non-nil on rank
// 0 and is ignored elsewhere. The rank seeds every read against the
// whole-genome index cfg.SeedIndex (built per rank when nil; a run
// passes all ranks one) and aligns only the candidates whose seed start
// falls in its slice [lo, hi) = GenomeSlice(acc.Len(), size, rank), so
// the ranks together align exactly the locations one process aligns.
// It writes only the positions of its slice: its own locations clipped
// to [lo, hi) as it maps, then the spills the other ranks address to
// it. No position is written by two ranks, and each gets the adds it
// would get in a slice accumulator of its own, in the same order.
// Returns the global Stats.
func RunGenomeSplit(c *cluster.Comm, ref *genome.Reference, src fastq.Source, acc genome.Accumulator, cfg Config) (Stats, error) {
	var st Stats
	size, rank := c.Size(), c.Rank()
	L := ref.Len()
	// Validate globally-visible conditions identically on every rank:
	// SPMD code must not have one rank error out of a collective while
	// the others enter it.
	if L < size {
		return st, fmt.Errorf("core: %d nodes for a %d-base reference leaves empty slices", size, L)
	}
	if acc.Len() != L {
		return st, fmt.Errorf("core: accumulator of %d positions for a %d-base reference", acc.Len(), L)
	}
	lo, hi := GenomeSlice(L, size, rank)
	eng, err := NewEngine(ref, cfg)
	if err != nil {
		return st, err
	}
	eng.ownLo, eng.ownHi = lo, hi
	// Genome-split drives one serial mapper per rank (the exchange is
	// the bottleneck, not lock contention).
	m, err := eng.getMapper()
	if err != nil {
		return st, err
	}
	peakResident := 0
	spills := make(map[int]spillBatch) // destination rank -> flattened
	var lls []float64
	ownLocations, ownZeroed := int64(0), int64(0)
	cursor := make([]int, size)

	for {
		batch, err := nextSplitBatch(c, src)
		if err != nil {
			return st, err
		}
		if len(batch) == 0 {
			break
		}
		peakResident = max(peakResident, len(batch))
		// Local alignment of the batch; keep: the locations must outlive
		// the exchange.
		batchLocs := make([][]location, len(batch))
		mine := batchLogLiks{N: make([]int32, len(batch))}
		err = m.mapBatch(batch, true, func(i int, locs []location) error {
			batchLocs[i], mine.N[i] = locs, int32(len(locs))
			mine.LL = logLiks(locs, mine.LL)
			return nil
		})
		if err != nil {
			return st, err
		}
		all, err := exchange(c, mine)
		if err != nil {
			return st, err
		}
		// Weigh each read's locations from every rank together and apply
		// this rank's; spill out-of-range positions to their owners.
		clear(cursor)
		for i, locs := range batchLocs {
			lls = lls[:0]
			own := 0
			for r, side := range all {
				if r == rank {
					own = len(lls)
				}
				n := int(side.N[i])
				lls = append(lls, side.LL[cursor[r]:cursor[r]+n]...)
				cursor[r] += n
			}
			if len(lls) == 0 {
				st.Unmapped++
				continue
			}
			st.Mapped++
			ws := m.e.weights(lls)
			for _, w := range ws {
				if w != 0 {
					st.Locations++
				}
			}
			if len(locs) == 0 {
				continue
			}
			// The rank holding locations of a read times its apply, as one
			// process times every mapped read's.
			var tAcc time.Time
			if m.met != nil {
				tAcc = time.Now()
			}
			for k, l := range locs {
				if w := ws[own+k]; w != 0 {
					ownLocations++
					applySliceContribution(acc, lo, hi, L, size, l, w, spills)
				} else {
					ownZeroed++
				}
			}
			if m.met != nil {
				m.met.accumSec.ObserveDuration(time.Since(tAcc))
			}
		}
	}
	// The genome-split path drives mapBatch directly rather than going
	// through MapReads, so mirror its read-level metric accounting here:
	// every rank holds the global read counts, so rank 0 alone publishes
	// them; locations are published by the rank that aligned them.
	if m.met != nil {
		if rank == 0 {
			m.met.mapped.Add(st.Mapped)
			m.met.unmapped.Add(st.Unmapped)
		}
		m.met.locations.Add(ownLocations)
		m.met.zeroed.Add(ownZeroed)
	}
	if cfg.Metrics != nil {
		// The reads this rank held at once: one batch, whatever the input.
		cfg.Metrics.Gauge("stream.peak.resident.reads").Set(float64(peakResident))
	}
	// Boundary exchange: everyone sends every other rank its spill
	// (possibly empty), then receives and applies what is addressed to
	// its slice.
	for r := 0; r < size; r++ {
		if r == rank {
			continue
		}
		if err := c.Send(r, spillTag, []float64(spills[r])); err != nil {
			return st, err
		}
	}
	for r := 0; r < size; r++ {
		if r == rank {
			continue
		}
		v, err := c.Recv(r, spillTag)
		if err != nil {
			return st, err
		}
		incoming, ok := v.([]float64)
		if !ok {
			return st, fmt.Errorf("core: rank %d sent spill payload %T", r, v)
		}
		if len(incoming)%6 != 0 {
			return st, fmt.Errorf("core: malformed spill of %d floats from rank %d", len(incoming), r)
		}
		for off := 0; off < len(incoming); off += 6 {
			pos := int(incoming[off])
			if pos < lo || pos >= hi {
				return st, fmt.Errorf("core: rank %d spilled position %d outside rank %d's slice [%d, %d)", r, pos, rank, lo, hi)
			}
			var vec genome.Vec
			copy(vec[:], incoming[off+1:off+6])
			acc.AddRange(pos, []genome.Vec{vec}, 1)
		}
	}
	return st, nil
}

// applySliceContribution adds the part of a weighted location inside
// the rank's slice [lo, hi) to the accumulator and buffers the rest for
// the owning ranks.
func applySliceContribution(acc genome.Accumulator, lo, hi, L, size int, l location, w float64, spills map[int]spillBatch) {
	start := l.windowStart
	end := start + len(l.contribs)
	if from, to := max(start, lo), min(end, hi); from < to {
		acc.AddRange(from, l.contribs[from-start:to-start], w)
	}
	if start >= lo && end <= hi {
		return
	}
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
// Rank r owns pos exactly when L·r/size <= pos < L·(r+1)/size (integer
// division), which solves to r = (size·(pos+1) - 1) / L.
func ownerOf(pos, L, size int) int {
	return (size*(pos+1) - 1) / L
}
