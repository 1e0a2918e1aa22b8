// Package fastq implements streaming FASTQ readers and writers and the
// Phred quality-score arithmetic the probabilistic mapper depends on.
//
// A FASTQ record carries, for every base, a Phred quality score
// Q = -10·log10(e) where e is the sequencer's estimated probability
// that the base call is wrong. GNUMAP-SNP's novel PHMM extension feeds
// these per-base error probabilities into the emission terms of the
// alignment (see internal/pwm), so the quality decoding here is the
// entry point of the paper's "multiple sources of error" pipeline.
package fastq

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"gnumap/internal/dna"
	"gnumap/internal/obs"
)

// Encoding selects the ASCII offset used to encode Phred scores.
type Encoding int

const (
	// Sanger is Phred+33, the modern standard (and what current
	// Illumina pipelines emit).
	Sanger Encoding = 33
	// Illumina13 is the historical Phred+64 encoding used by Illumina
	// pipeline versions 1.3-1.7, contemporaneous with the paper.
	Illumina13 Encoding = 64
)

// MaxQuality caps decoded scores; qualities above it are clamped. Q=60
// already means a 1-in-a-million error estimate, beyond any real
// short-read chemistry.
const MaxQuality = 60

// Read is a single sequencing read: identifier, base calls, and per-base
// Phred quality scores (decoded, not ASCII).
type Read struct {
	Name string
	Seq  dna.Seq
	Qual []uint8
}

// Validate checks internal consistency.
func (r *Read) Validate() error {
	if len(r.Seq) == 0 {
		return fmt.Errorf("fastq: read %q has empty sequence", r.Name)
	}
	if len(r.Seq) != len(r.Qual) {
		return fmt.Errorf("fastq: read %q: %d bases but %d quality values", r.Name, len(r.Seq), len(r.Qual))
	}
	return nil
}

// ErrorProb returns the error probability 10^(-Q/10) for a Phred score.
func ErrorProb(q uint8) float64 {
	return math.Pow(10, -float64(q)/10)
}

// PhredFromErrorProb converts an error probability back to the nearest
// Phred score, clamped to [0, MaxQuality].
func PhredFromErrorProb(e float64) uint8 {
	if e <= 0 {
		return MaxQuality
	}
	q := -10 * math.Log10(e)
	if q < 0 {
		q = 0
	}
	if q > MaxQuality {
		q = MaxQuality
	}
	return uint8(math.Round(q))
}

// TruncatedError reports a gzipped FASTQ stream that ended mid-member:
// the compressed file was cut off (partial download, interrupted
// write), as opposed to a clean file with a malformed record. Records
// counts the complete reads decoded before the cut, so a caller can
// tell how much of the input survived.
type TruncatedError struct {
	// Path is the input file ("" for an anonymous stream).
	Path string
	// Records is the number of complete records decoded before the cut.
	Records int64
}

func (e *TruncatedError) Error() string {
	where := e.Path
	if where == "" {
		where = "stream"
	}
	return fmt.Sprintf("fastq: truncated gzip input in %s after record %d", where, e.Records)
}

// Unwrap keeps errors.Is(err, io.ErrUnexpectedEOF) working for callers
// that match on the underlying condition rather than the type.
func (e *TruncatedError) Unwrap() error { return io.ErrUnexpectedEOF }

// Reader streams reads from a FASTQ stream.
type Reader struct {
	br        *bufio.Reader
	enc       Encoding
	line      int
	exhausted bool
	records   int64
}

// NewReader returns a Reader decoding qualities with the given encoding.
func NewReader(r io.Reader, enc Encoding) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16), enc: enc}
}

// Next returns the next read or io.EOF. FASTQ is rigidly 4 lines per
// record; a truncated trailing record is an error, not EOF, so silent
// data loss is impossible.
func (r *Reader) Next() (*Read, error) {
	if r.exhausted {
		return nil, io.EOF
	}
	header, err := r.readLine()
	if err == io.EOF {
		r.exhausted = true
		return nil, io.EOF
	}
	if err != nil {
		return nil, err
	}
	if len(header) == 0 || header[0] != '@' {
		return nil, fmt.Errorf("fastq: line %d: expected '@' header, got %q", r.line, truncate(header))
	}
	seqLine, err := r.requireLine("sequence")
	if err != nil {
		return nil, err
	}
	if len(seqLine) == 0 {
		// An empty sequence would produce a Read that fails its own
		// Validate; reject it here so Next returns error-or-valid-read.
		return nil, fmt.Errorf("fastq: line %d: empty sequence line", r.line)
	}
	plus, err := r.requireLine("'+' separator")
	if err != nil {
		return nil, err
	}
	if len(plus) == 0 || plus[0] != '+' {
		return nil, fmt.Errorf("fastq: line %d: expected '+' separator, got %q", r.line, truncate(plus))
	}
	qualLine, err := r.requireLine("quality")
	if err != nil {
		return nil, err
	}
	if len(qualLine) != len(seqLine) {
		return nil, fmt.Errorf("fastq: line %d: quality length %d != sequence length %d", r.line, len(qualLine), len(seqLine))
	}
	seq, err := dna.ParseSeqBytes(seqLine)
	if err != nil {
		return nil, fmt.Errorf("fastq: line %d: %v", r.line-2, err)
	}
	qual := make([]uint8, len(qualLine))
	for i, b := range qualLine {
		q := int(b) - int(r.enc)
		if q < 0 {
			return nil, fmt.Errorf("fastq: line %d: quality byte %q below encoding offset %d", r.line, b, r.enc)
		}
		if q > MaxQuality {
			q = MaxQuality
		}
		qual[i] = uint8(q)
	}
	name := string(bytes.TrimSpace(header[1:]))
	if i := bytes.IndexAny(header[1:], " \t"); i >= 0 {
		name = string(bytes.TrimSpace(header[1 : 1+i]))
	}
	r.records++
	return &Read{Name: name, Seq: seq, Qual: qual}, nil
}

// Records returns the number of complete records decoded so far.
func (r *Reader) Records() int64 { return r.records }

// requireLine reads a line that must exist mid-record.
func (r *Reader) requireLine(what string) ([]byte, error) {
	line, err := r.readLine()
	if err == io.EOF {
		return nil, fmt.Errorf("fastq: line %d: truncated record: missing %s line", r.line, what)
	}
	return line, err
}

func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadBytes('\n')
	if len(line) == 0 && err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		// %w so a gzip io.ErrUnexpectedEOF stays matchable — the file
		// readers turn it into a TruncatedError naming the path.
		return nil, fmt.Errorf("fastq: read: %w", err)
	}
	r.line++
	line = bytes.TrimRight(line, "\r\n")
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("fastq: read: %w", err)
	}
	return line, nil
}

func truncate(b []byte) string {
	if len(b) > 20 {
		return string(b[:20]) + "..."
	}
	return string(b)
}

// ReadAll parses every read from r.
func ReadAll(r io.Reader, enc Encoding) ([]*Read, error) {
	fr := NewReader(r, enc)
	var reads []*Read
	for {
		rd, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return reads, nil
		}
		if err != nil {
			return nil, err
		}
		reads = append(reads, rd)
	}
}

// ReadFile parses every read from the named file: Open, drain, Close,
// so .gz handling and the volume counters are File's. Wall time lands
// in the process-wide registry as io.fastq.read.seconds.
func ReadFile(path string, enc Encoding) ([]*Read, error) {
	defer obs.Default().StartTimer("io.fastq.read.seconds")()
	fl, err := Open(path, enc)
	if err != nil {
		return nil, err
	}
	defer fl.Close()
	var reads []*Read
	for {
		rd, err := fl.Next()
		if errors.Is(err, io.EOF) {
			return reads, nil
		}
		if err != nil {
			return nil, err
		}
		reads = append(reads, rd)
	}
}

// Writer writes FASTQ records.
type Writer struct {
	w   *bufio.Writer
	enc Encoding
}

// NewWriter returns a Writer encoding qualities with enc.
func NewWriter(w io.Writer, enc Encoding) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), enc: enc}
}

// Write emits one read.
func (w *Writer) Write(rd *Read) error {
	if err := rd.Validate(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w.w, "@%s\n", rd.Name); err != nil {
		return err
	}
	if _, err := w.w.Write(rd.Seq.Bytes()); err != nil {
		return err
	}
	if _, err := w.w.WriteString("\n+\n"); err != nil {
		return err
	}
	for _, q := range rd.Qual {
		if err := w.w.WriteByte(byte(int(q) + int(w.enc))); err != nil {
			return err
		}
	}
	return w.w.WriteByte('\n')
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// WriteFile writes all reads to the named file. Files ending in .gz
// are transparently compressed. Wall time and volume land in the
// process-wide registry as io.fastq.write.{seconds,records}.
func WriteFile(path string, reads []*Read, enc Encoding) error {
	defer obs.Default().StartTimer("io.fastq.write.seconds")()
	obs.Default().Counter("io.fastq.write.records").Add(int64(len(reads)))
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
	w := NewWriter(out, enc)
	for _, rd := range reads {
		if err := w.Write(rd); err != nil {
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
