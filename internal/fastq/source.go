package fastq

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"gnumap/internal/obs"
)

// Source yields reads one at a time until io.EOF — the streaming
// counterpart of a materialized []*Read. *Reader satisfies it, so a
// FASTQ stream plugs straight into the engine's bounded pipeline
// without ever holding more than the in-flight batches in memory.
type Source interface {
	// Next returns the next read, io.EOF at the end of the stream, or
	// a parse/transport error. After a non-nil error the source is
	// exhausted; further calls keep returning an error.
	Next() (*Read, error)
}

// NextBatch pulls up to n reads from src. A batch shorter than n means
// the source ended (io.EOF is not an error here); any other error is
// returned as is, for the caller to wrap.
func NextBatch(src Source, n int) ([]*Read, error) {
	batch := make([]*Read, 0, n)
	for len(batch) < n {
		rd, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		batch = append(batch, rd)
	}
	return batch, nil
}

// sliceSource adapts an in-memory read slice to a Source (tests,
// benchmarks, and callers that already materialized their reads).
type sliceSource struct {
	reads []*Read
	pos   int
}

// SliceSource returns a Source yielding the given reads in order.
func SliceSource(reads []*Read) Source {
	return &sliceSource{reads: reads}
}

func (s *sliceSource) Next() (*Read, error) {
	if s.pos >= len(s.reads) {
		return nil, io.EOF
	}
	rd := s.reads[s.pos]
	s.pos++
	return rd, nil
}

// File is a streaming FASTQ file handle: a Source backed by an open
// file, transparently gunzipping *.gz. It counts records and bases as
// they stream; Close publishes the volume and the open→close wall time
// to the process-wide registry as io.fastq.read.{records,bases} and
// io.fastq.stream.seconds.
type File struct {
	f      *os.File
	gz     *gzip.Reader
	r      *Reader
	path   string
	opened time.Time

	records, bases int64
}

// Open opens the named FASTQ file (or .gz) for streaming.
func Open(path string, enc Encoding) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fl := &File{f: f, path: path, opened: time.Now()}
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fastq: %s: %w", path, err)
		}
		fl.gz = gz
		r = gz
	}
	fl.r = NewReader(r, enc)
	return fl, nil
}

// Next returns the next read or io.EOF.
func (fl *File) Next() (*Read, error) {
	rd, err := fl.r.Next()
	if err != nil {
		if fl.gz != nil && errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, &TruncatedError{Path: fl.path, Records: fl.records}
		}
		return nil, err
	}
	fl.records++
	fl.bases += int64(len(rd.Seq))
	return rd, nil
}

// Records returns the number of reads streamed so far.
func (fl *File) Records() int64 { return fl.records }

// Close closes the file and publishes the streamed volume.
func (fl *File) Close() error {
	obs.Default().Counter("io.fastq.read.records").Add(fl.records)
	obs.Default().Counter("io.fastq.read.bases").Add(fl.bases)
	obs.Default().Timer("io.fastq.stream.seconds").ObserveDuration(time.Since(fl.opened))
	var gzErr error
	if fl.gz != nil {
		gzErr = fl.gz.Close()
	}
	if err := fl.f.Close(); err != nil {
		return err
	}
	return gzErr
}
