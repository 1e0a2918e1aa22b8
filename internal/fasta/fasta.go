// Package fasta implements streaming FASTA readers and writers for the
// reference genomes consumed by the mapper. Records are decoded into
// dna.Seq code form in one pass, each line straight from the read
// buffer; line wrapping, CRLF endings, blank lines, and multi-record
// files are handled. The reader is strict about sequence
// content: a non-nucleotide byte is an error, not silently dropped,
// because a corrupted reference silently truncating would invalidate
// every downstream coordinate.
package fasta

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"gnumap/internal/dna"
	"gnumap/internal/obs"
)

// Record is a single FASTA record.
type Record struct {
	// Name is the first whitespace-delimited token of the header line,
	// without the leading '>'.
	Name string
	// Description is the remainder of the header line, if any.
	Description string
	// Seq is the record body in code form.
	Seq dna.Seq
}

// Reader streams records from a FASTA file.
type Reader struct {
	br   *bufio.Reader
	line int
	// pendingHeader holds the header line of the next record once the
	// previous record body has been fully consumed.
	pendingHeader string
	started       bool
	done          bool
	// free is where the next record's body is decoded: the unused tail
	// of the allocation the last body went into. Records of one file
	// share that allocation, each capped at its own end. It is never
	// nil, so a record with an empty body has an empty, non-nil Seq.
	free dna.Seq
	// long holds a line longer than the read buffer.
	long []byte
}

// NewReader returns a Reader consuming r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16), free: dna.Seq{}}
}

// Next returns the next record, or io.EOF after the last one. Any
// format violation is returned as a non-EOF error naming the line.
func (r *Reader) Next() (*Record, error) {
	if r.done {
		return nil, io.EOF
	}
	header, err := r.nextHeader()
	if err != nil {
		return nil, err
	}
	rec := &Record{}
	rec.Name, rec.Description = splitHeader(header)
	if rec.Name == "" {
		return nil, fmt.Errorf("fasta: line %d: empty record name", r.line)
	}

	// An invalid byte is reported once the record's lines are consumed,
	// so a read error later in the record still wins and the next call
	// starts at the next header.
	seq := r.free[:0]
	var bad error
	for {
		line, err := r.readLine()
		if err == io.EOF {
			r.done = true
			break
		}
		if err != nil {
			return nil, err
		}
		if len(line) == 0 {
			continue
		}
		if line[0] == '>' {
			r.pendingHeader = string(line)
			break
		}
		if bad == nil {
			seq, bad = dna.AppendSeqBytes(seq, line)
		}
	}
	if bad != nil {
		return nil, fmt.Errorf("fasta: record %q: %v", rec.Name, bad)
	}
	rec.Seq, r.free = seq[:len(seq):len(seq)], seq[len(seq):]
	return rec, nil
}

// nextHeader returns the '>' header line beginning the next record.
func (r *Reader) nextHeader() (string, error) {
	if r.pendingHeader != "" {
		h := r.pendingHeader
		r.pendingHeader = ""
		return h, nil
	}
	for {
		line, err := r.readLine()
		if err == io.EOF {
			r.done = true
			return "", io.EOF
		}
		if err != nil {
			return "", err
		}
		if len(line) == 0 {
			continue
		}
		if line[0] != '>' {
			if !r.started {
				return "", fmt.Errorf("fasta: line %d: file does not start with '>'", r.line)
			}
			return "", fmt.Errorf("fasta: line %d: sequence data outside a record", r.line)
		}
		r.started = true
		return string(line), nil
	}
}

// readLine reads one line, trimming the trailing newline and any CR.
// The line aliases the read buffer (or r.long) and is valid until the
// next call.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.long = append(r.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		line = r.long
	}
	if len(line) == 0 && err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("fasta: read: %v", err)
	}
	r.line++
	line = bytes.TrimRight(line, "\r\n")
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("fasta: read: %v", err)
	}
	return line, nil
}

// splitHeader splits a '>' header into name and description.
func splitHeader(h string) (name, desc string) {
	h = strings.TrimPrefix(h, ">")
	h = strings.TrimSpace(h)
	if i := strings.IndexAny(h, " \t"); i >= 0 {
		return h[:i], strings.TrimSpace(h[i+1:])
	}
	return h, ""
}

// ReadAll parses every record from r.
func ReadAll(r io.Reader) ([]*Record, error) { return readAll(NewReader(r)) }

func readAll(fr *Reader) ([]*Record, error) {
	var recs []*Record
	for {
		rec, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// ReadFile parses every record from the named file. Files ending in
// .gz are transparently decompressed. Wall time and volume land in the
// process-wide registry as io.fasta.read.{seconds,records,bases}.
func ReadFile(path string) ([]*Record, error) {
	defer obs.Default().StartTimer("io.fasta.read.seconds")()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var fr *Reader
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("fasta: %s: %w", path, err)
		}
		defer gz.Close()
		fr = NewReader(gz)
	} else {
		fr = NewReader(f)
		// A plain file's size bounds the bases of all its records, so
		// they all decode into one allocation.
		if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
			fr.free = make(dna.Seq, 0, fi.Size())
		}
	}
	recs, err := readAll(fr)
	if err == nil {
		bases := 0
		for _, rec := range recs {
			bases += len(rec.Seq)
		}
		obs.Default().Counter("io.fasta.read.records").Add(int64(len(recs)))
		obs.Default().Counter("io.fasta.read.bases").Add(int64(bases))
	}
	return recs, err
}

// Writer writes FASTA records with a fixed line width.
type Writer struct {
	w     *bufio.Writer
	Width int // sequence line width; defaults to 70 when zero
}

// NewWriter returns a Writer targeting w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), Width: 70}
}

// Write emits one record.
func (w *Writer) Write(rec *Record) error {
	width := w.Width
	if width <= 0 {
		width = 70
	}
	if _, err := w.w.WriteString(">" + rec.Name); err != nil {
		return err
	}
	if rec.Description != "" {
		if _, err := w.w.WriteString(" " + rec.Description); err != nil {
			return err
		}
	}
	if err := w.w.WriteByte('\n'); err != nil {
		return err
	}
	body := rec.Seq.Bytes()
	for off := 0; off < len(body); off += width {
		end := off + width
		if end > len(body) {
			end = len(body)
		}
		if _, err := w.w.Write(body[off:end]); err != nil {
			return err
		}
		if err := w.w.WriteByte('\n'); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// WriteFile writes all records to the named file. Files ending in .gz
// are transparently compressed. Wall time and volume land in the
// process-wide registry as io.fasta.write.{seconds,records}.
func WriteFile(path string, recs []*Record) error {
	defer obs.Default().StartTimer("io.fasta.write.seconds")()
	obs.Default().Counter("io.fasta.write.records").Add(int64(len(recs)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var out io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		out = gz
	}
	w := NewWriter(out)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
