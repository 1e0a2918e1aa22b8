package fastq

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gnumap/internal/dna"
)

// truncatedFixture writes a gzipped FASTQ of n reads, then cuts the
// compressed file down to frac of its bytes — the shape of a partial
// download or an interrupted writer.
func truncatedFixture(t *testing.T, n int, frac float64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	reads := make([]*Read, n)
	for i := range reads {
		seq := make([]byte, 50)
		qual := make([]uint8, 50)
		for j := range seq {
			seq[j] = "ACGT"[rng.Intn(4)]
			qual[j] = uint8(20 + rng.Intn(20))
		}
		s, err := dna.ParseSeqBytes(seq)
		if err != nil {
			t.Fatal(err)
		}
		reads[i] = &Read{Name: fmt.Sprintf("read_%d", i), Seq: s, Qual: qual}
	}
	path := filepath.Join(t.TempDir(), "cut.fq.gz")
	if err := WriteFile(path, reads, Sanger); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := int(float64(len(blob)) * frac)
	if err := os.WriteFile(path, blob[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func checkTruncatedError(t *testing.T, err error, path string) {
	t.Helper()
	if err == nil {
		t.Fatal("truncated gzip accepted without error")
	}
	var te *TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("error %v (%T), want *TruncatedError", err, err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("error does not unwrap to io.ErrUnexpectedEOF: %v", err)
	}
	if te.Path != path {
		t.Errorf("Path = %q, want %q", te.Path, path)
	}
	if te.Records <= 0 {
		t.Errorf("Records = %d, want > 0 (the cut is past the first record)", te.Records)
	}
	want := fmt.Sprintf("fastq: truncated gzip input in %s after record %d", path, te.Records)
	if te.Error() != want {
		t.Errorf("message %q, want %q", te.Error(), want)
	}
}

// TestReadFileTruncatedGzip: the slice reader turns a mid-member gzip
// cut into the typed error naming the file and the survivor count.
func TestReadFileTruncatedGzip(t *testing.T) {
	path := truncatedFixture(t, 200, 0.6)
	_, err := ReadFile(path, Sanger)
	checkTruncatedError(t, err, path)
}

// TestFileNextTruncatedGzip: the streaming source surfaces the same
// typed error, with Records equal to the reads already yielded.
func TestFileNextTruncatedGzip(t *testing.T) {
	path := truncatedFixture(t, 200, 0.6)
	fl, err := Open(path, Sanger)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	var n int64
	for {
		_, err = fl.Next()
		if err != nil {
			break
		}
		n++
	}
	checkTruncatedError(t, err, path)
	var te *TruncatedError
	errors.As(err, &te)
	if te.Records != n {
		t.Errorf("Records = %d, but %d reads were yielded", te.Records, n)
	}
	// Exhausted source keeps erroring rather than faking EOF.
	if _, err2 := fl.Next(); err2 == nil {
		t.Error("Next after truncation error returned nil error")
	}
}

// TestTruncatedErrorStreamMessage: an anonymous stream (no path) still
// renders a useful message.
func TestTruncatedErrorStreamMessage(t *testing.T) {
	te := &TruncatedError{Records: 42}
	if !strings.Contains(te.Error(), "in stream after record 42") {
		t.Errorf("anonymous-stream message: %q", te.Error())
	}
}

// TestPlainTruncatedFastqStillErrors: a truncated *uncompressed* file
// keeps its pre-existing parse-error behavior — the typed gzip error is
// specifically about compressed transport cuts.
func TestPlainTruncatedFastqStillErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cut.fq")
	if err := os.WriteFile(path, []byte("@r1\nACGT\n+\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFile(path, Sanger)
	if err == nil {
		t.Fatal("truncated plain fastq accepted")
	}
	var te *TruncatedError
	if errors.As(err, &te) {
		t.Errorf("plain-file truncation produced gzip TruncatedError: %v", err)
	}
}

// NextBatch fills whole batches, ends the stream with a short one (empty
// when the count divides evenly), and hands a source error back
// unwrapped — here a truncated gzip member, so the reads before the cut
// are not passed off as the end of the input.
func TestNextBatch(t *testing.T) {
	reads := make([]*Read, 10)
	for i := range reads {
		reads[i] = &Read{Name: fmt.Sprint(i)}
	}
	for _, n := range []int{1, 3, 5, 10, 64} {
		src := SliceSource(reads)
		var got []*Read
		for {
			batch, err := NextBatch(src, n)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, batch...)
			if len(batch) < n {
				break
			}
			if len(batch) != n {
				t.Fatalf("n=%d: batch of %d", n, len(batch))
			}
		}
		if len(got) != len(reads) {
			t.Fatalf("n=%d: %d reads, want %d", n, len(got), len(reads))
		}
		for i := range got {
			if got[i] != reads[i] {
				t.Fatalf("n=%d: read %d out of order", n, i)
			}
		}
	}
	path := truncatedFixture(t, 200, 0.6)
	fl, err := Open(path, Sanger)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	for {
		batch, err := NextBatch(fl, 16)
		if err != nil {
			checkTruncatedError(t, err, path)
			break
		}
		if len(batch) < 16 {
			t.Fatalf("truncated stream ended with a short batch of %d and no error", len(batch))
		}
	}
}
