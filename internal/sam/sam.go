// Package sam implements a minimal SAM v1.6 writer for the mapper's
// best alignments, providing interoperability with standard genomics
// tooling. Only the subset the mapper produces is supported: single-end
// records, forward/reverse flags, and M/I/D CIGAR operations.
package sam

import (
	"bufio"
	"fmt"
	"io"

	"gnumap/internal/dna"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
)

// Flag bits (SAM spec §1.4).
const (
	// FlagUnmapped marks a read without an accepted alignment.
	FlagUnmapped = 0x4
	// FlagReverse marks an alignment to the reverse strand.
	FlagReverse = 0x10
)

// Record is one SAM alignment line.
type Record struct {
	// QName is the read name.
	QName string
	// Flag is the bitwise flag field.
	Flag int
	// RName is the contig name ("*" when unmapped).
	RName string
	// Pos is the 1-based leftmost mapping position (0 when unmapped).
	Pos int
	// MapQ is the mapping quality (255 = unavailable).
	MapQ int
	// CIGAR is the alignment description ("*" when unmapped).
	CIGAR string
	// Seq and Qual are in alignment orientation (reverse-complemented
	// for reverse-strand alignments, per the SAM spec).
	Seq  dna.Seq
	Qual []uint8
}

// Writer emits a SAM header followed by records.
type Writer struct {
	w         *bufio.Writer
	wroteHead bool
}

// NewWriter returns a Writer targeting w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// WriteHeader emits @HD, one @SQ per contig, and an @PG line. It must
// be called once, before any record.
func (w *Writer) WriteHeader(contigs []genome.Contig, program string) error {
	if w.wroteHead {
		return fmt.Errorf("sam: header already written")
	}
	if _, err := fmt.Fprintln(w.w, "@HD\tVN:1.6\tSO:unknown"); err != nil {
		return err
	}
	for _, c := range contigs {
		if _, err := fmt.Fprintf(w.w, "@SQ\tSN:%s\tLN:%d\n", c.Name, len(c.Seq)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w.w, "@PG\tID:%s\tPN:%s\n", program, program); err != nil {
		return err
	}
	w.wroteHead = true
	return nil
}

// Write emits one record.
func (w *Writer) Write(r *Record) error {
	if !w.wroteHead {
		return fmt.Errorf("sam: WriteHeader must precede records")
	}
	rname, cigar := r.RName, r.CIGAR
	pos := r.Pos
	if r.Flag&FlagUnmapped != 0 {
		rname, cigar, pos = "*", "*", 0
	}
	if rname == "" {
		return fmt.Errorf("sam: mapped record %q without contig", r.QName)
	}
	qual := make([]byte, len(r.Qual))
	for i, q := range r.Qual {
		if q > 93 {
			q = 93 // SAM caps printable qualities at '~'
		}
		qual[i] = byte(q + 33)
	}
	qualStr := string(qual)
	if len(qual) == 0 {
		qualStr = "*"
	}
	_, err := fmt.Fprintf(w.w, "%s\t%d\t%s\t%d\t%d\t%s\t*\t0\t0\t%s\t%s\n",
		sanitize(r.QName), r.Flag, rname, pos, r.MapQ, cigar, r.Seq.String(), qualStr)
	return err
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// sanitize replaces field-breaking characters in read names.
func sanitize(name string) string {
	if name == "" {
		return "unnamed"
	}
	out := []byte(name)
	for i, b := range out {
		if b == '\t' || b == '\n' || b == '\r' || b == ' ' {
			out[i] = '_'
		}
	}
	return string(out)
}

// UnmappedRecord builds the record for a read with no alignment.
func UnmappedRecord(rd *fastq.Read) *Record {
	return &Record{
		QName: rd.Name,
		Flag:  FlagUnmapped,
		RName: "*",
		MapQ:  0,
		CIGAR: "*",
		Seq:   rd.Seq,
		Qual:  rd.Qual,
	}
}
