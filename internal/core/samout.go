package core

import (
	"fmt"
	"io"
	"math"

	"gnumap/internal/fastq"
	"gnumap/internal/sam"
)

// WriteAlignments maps every read and writes its single best alignment
// as SAM to w (plus an unmapped record for reads with no accepted
// location). The marginal accumulator pipeline (MapReads) is the
// paper's core contribution; this exporter exists for interoperability
// with standard genomics tooling, reporting the Viterbi path of the
// highest-likelihood location with a mapping quality derived from that
// location's posterior weight — MapQ = -10·log10(1 - w), capped at 60,
// which is 0 for perfectly ambiguous multi-mapping reads.
func (e *Engine) WriteAlignments(w io.Writer, reads []*fastq.Read, program string) error {
	sw := sam.NewWriter(w)
	if err := sw.WriteHeader(e.ref.Contigs(), program); err != nil {
		return err
	}
	m, err := e.getMapper()
	if err != nil {
		return err
	}
	defer e.putMapper(m)
	err = m.mapBatch(reads, false, func(i int, locs []location) error {
		rd := reads[i]
		if len(locs) == 0 {
			return sw.Write(sam.UnmappedRecord(rd))
		}
		weights := e.weights(logLiks(locs, nil))
		best := 0
		for i := range locs {
			if locs[i].logLik > locs[best].logLik {
				best = i
			}
		}
		rec, err := e.samRecord(m, rd, locs[best], weights[best])
		if err != nil {
			return err
		}
		return sw.Write(rec)
	})
	if err != nil {
		return err
	}
	return sw.Flush()
}

// samRecord renders one location as a SAM record, re-running Viterbi on
// its window for a concrete path — from emit, while loc.p is live.
func (e *Engine) samRecord(m *mapper, rd *fastq.Read, loc location, weight float64) (*sam.Record, error) {
	seq, qual := rd.Seq, rd.Qual
	if loc.minus {
		seq = rd.Seq.ReverseComplement()
		qual = make([]uint8, len(rd.Qual))
		for i, q := range rd.Qual {
			qual[len(rd.Qual)-1-i] = q
		}
	}
	window, winStart := e.ref.Window(loc.windowStart, len(loc.contribs))
	path, err := m.aligner.Viterbi(loc.p, window)
	if err != nil {
		return nil, fmt.Errorf("core: sam viterbi: %w", err)
	}
	globalPos := winStart + path.Start - 1
	contig, local, err := e.ref.Locate(globalPos)
	if err != nil {
		return nil, err
	}
	flag := 0
	if loc.minus {
		flag |= sam.FlagReverse
	}
	return &sam.Record{
		QName: rd.Name,
		Flag:  flag,
		RName: contig,
		Pos:   local + 1, // SAM is 1-based
		MapQ:  mapQFromWeight(weight),
		CIGAR: path.CIGAR(),
		Seq:   seq,
		Qual:  qual,
	}, nil
}

// mapQFromWeight converts a location posterior weight into a
// Phred-scaled mapping quality.
func mapQFromWeight(w float64) int {
	if w >= 1 {
		return 60
	}
	if w <= 0 {
		return 0
	}
	q := int(math.Round(-10 * math.Log10(1-w)))
	if q > 60 {
		q = 60
	}
	if q < 0 {
		q = 0
	}
	return q
}
