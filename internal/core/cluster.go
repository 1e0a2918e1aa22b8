package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

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
//   - Genome-split ("spread memory" in Figure 4): every node holds a
//     1/N slice of the genome and accumulator, and every node maps all
//     reads against its slice. Rank 0 owns the read stream and
//     broadcasts it a batch at a time, so no rank ever holds more than
//     one batch. A read's posterior weights need the likelihoods of its
//     locations on every slice, so after mapping a batch the ranks meet
//     in ONE exchange: each contributes the log-likelihoods of the
//     locations it accepted, per read, and receives everyone's;
//     concatenated in rank order they are the input of the engine's own
//     weights — thresholding, renormalization, best-hit selection and
//     the mapped/unmapped/locations counts are the shared-memory code
//     run on every rank with the same input, so every rank also ends up
//     with the global Stats. Alignments spilling over a slice boundary
//     route their out-of-range contributions to the owning node
//     point-to-point at the end. Minimal memory, more communication —
//     which is why the paper's Figure 4 shows it processing fewer
//     sequences per second.

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
		batch = make([]*fastq.Read, 0, genomeSplitBatch)
		for len(batch) < genomeSplitBatch {
			rd, err := src.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("core: read source: %w", err)
			}
			batch = append(batch, rd)
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
// protocol is described above). src must be non-nil on rank 0 and is
// ignored elsewhere. Each rank indexes its slice extended by the longest
// read seen so far (plus padding), so boundary-straddling reads are
// found, and re-indexes when a batch brings a longer one — every rank
// sees every read, so they all decide alike. Returns the local slice
// accumulator, the owned range, and global Stats.
func RunGenomeSplit(c *cluster.Comm, ref *genome.Reference, src fastq.Source, mode genome.Mode, cfg Config) (genome.Accumulator, int, int, Stats, error) {
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
	// Genome-split drives one serial mapper per rank (the exchange is
	// the bottleneck, not lock contention), so the striped accumulator
	// is always the right layout here.
	acc, err := genome.New(mode, hi-lo)
	if err != nil {
		return nil, 0, 0, st, err
	}
	var m *mapper
	maxReadLen, peakResident := 0, 0
	spills := make(map[int]spillBatch) // destination rank -> flattened
	var lls []float64
	ownLocations := int64(0)
	cursor := make([]int, size)

	for {
		batch, err := nextSplitBatch(c, src)
		if err != nil {
			return nil, 0, 0, st, err
		}
		if len(batch) == 0 {
			break
		}
		peakResident = max(peakResident, len(batch))
		longest := maxReadLen
		for _, rd := range batch {
			longest = max(longest, len(rd.Seq))
		}
		if m == nil || longest > maxReadLen {
			// Ownership of a location is decided by its seed start, so the
			// index only has to reach one read (and its padding) past the
			// slice on either side.
			maxReadLen = longest
			ext := maxReadLen + cfg.Pad + 1
			eng, err := newEngineSlice(ref, max(lo-ext, 0), min(hi+ext, L), cfg)
			if err != nil {
				return nil, 0, 0, st, err
			}
			eng.ownLo, eng.ownHi = lo, hi
			if m, err = eng.getMapper(); err != nil {
				return nil, 0, 0, st, err
			}
		}
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
			return nil, 0, 0, st, err
		}
		all, err := exchange(c, mine)
		if err != nil {
			return nil, 0, 0, st, err
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
			for k, l := range locs {
				if w := ws[own+k]; w != 0 {
					ownLocations++
					applySliceContribution(acc, lo, hi, L, size, l, w, spills)
				}
			}
		}
	}
	// The genome-split path drives mapBatch directly rather than going
	// through MapReads, so mirror its read-level metric accounting here:
	// every rank holds the global read counts, so rank 0 alone publishes
	// them; locations are published by the rank that applied them.
	if m != nil && m.met != nil {
		if rank == 0 {
			m.met.mapped.Add(st.Mapped)
			m.met.unmapped.Add(st.Unmapped)
		}
		m.met.locations.Add(ownLocations)
	}
	if cfg.Metrics != nil {
		// The reads this rank held at once: one batch, whatever the input.
		cfg.Metrics.Gauge("stream.peak.resident.reads").Set(float64(peakResident))
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
