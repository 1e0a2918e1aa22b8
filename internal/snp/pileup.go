package snp

import (
	"bufio"
	"fmt"
	"io"

	"gnumap/internal/genome"
	"gnumap/internal/lrt"
)

// WritePileup emits a per-position TSV of the accumulated probability
// pileup over positions [from, to): contig, 1-based position,
// reference base, total mass, the five channel masses, and the
// monoploid LRT p-value. Positions with total mass below minDepth are
// skipped (the whole-genome table would be dominated by empty rows).
//
// This is the paper's "probability that a given nucleotide..." output
// (Figure 3's per-position totals) in machine-readable form.
func WritePileup(w io.Writer, ref *genome.Reference, acc genome.Accumulator, from, to int, minDepth float64) error {
	if ref == nil {
		return fmt.Errorf("snp: nil reference")
	}
	// Writers are quiesced by the time a pileup is written.
	fz, err := genome.Freeze(acc)
	if err != nil {
		return err
	}
	from, to = clampSweep(ref, fz.Len(), from, to)
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintln(bw, "#contig\tpos\tref\ttotal\tA\tC\tG\tT\tgap\tp_value"); err != nil {
		return err
	}
	for g := from; g < to; g++ {
		v := fz.Vector(g)
		total := 0.0
		for _, x := range v {
			total += x
		}
		if total < minDepth {
			continue
		}
		res, err := lrt.Test(v, lrt.Monoploid)
		if err != nil {
			return err
		}
		contig, local, err := ref.Locate(g)
		if err != nil {
			// Inter-contig spacer positions are not reportable.
			continue
		}
		refBase, err := ref.Base(g)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "%s\t%d\t%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3e\n",
			contig, local+1, refBase, total, v[0], v[1], v[2], v[3], v[4], res.PValue); err != nil {
			return err
		}
	}
	return bw.Flush()
}
