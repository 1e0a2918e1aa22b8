package fasta

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gnumap/internal/dna"
)

// oracleReader is the FASTA reader as it stood before the one-pass
// decode: a fresh ReadBytes slice per line, the record's lines appended
// into one body, and the body parsed whole by dna.ParseSeqBytes. The
// Reader must return the same records, or the same error string.
type oracleReader struct {
	br            *bufio.Reader
	line          int
	pendingHeader string
	started, done bool
}

func (r *oracleReader) next() (*Record, error) {
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
	var body []byte
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
		body = append(body, line...)
	}
	seq, err := dna.ParseSeqBytes(body)
	if err != nil {
		return nil, fmt.Errorf("fasta: record %q: %v", rec.Name, err)
	}
	rec.Seq = seq
	return rec, nil
}

func (r *oracleReader) nextHeader() (string, error) {
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

func (r *oracleReader) readLine() ([]byte, error) {
	line, err := r.br.ReadBytes('\n')
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

// oracleReadAll is ReadAll over the oracle reader.
func oracleReadAll(r io.Reader) ([]*Record, error) {
	or := &oracleReader{br: bufio.NewReaderSize(r, 1<<16)}
	var recs []*Record
	for {
		rec, err := or.next()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// failingReader hands out data, then fails with err instead of EOF.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

func sameResult(t *testing.T, name string, got, want []*Record, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, oracle %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: records differ from the oracle's (%d vs %d)", name, len(got), len(want))
	}
}

// Differential: ReadAll, and ReadFile on the same bytes as a plain and
// as a .gz file, return exactly the oracle's records or its error
// string, on every case below and on random mixes of their pieces.
func TestReadMatchesOracle(t *testing.T) {
	long := strings.Repeat("ACGTN", 20_000) // 100 kB, longer than the read buffer
	cases := map[string]string{
		"multi":               ">chr1 test contig\nACGT\nNNAC\n>chr2\nGG\n",
		"crlf and blank":      ">chr1\r\nACGT\r\n\r\nAC\r\n\r\n>chr2 d\r\nTT\r\n",
		"lowercase and iupac": ">chr1\nacgtnRYKMSWBDHVryk\n",
		"no trailing newline": ">chr1\nACGT",
		"empty body":          ">empty\n>chr2\nAC\n",
		"bare header":         ">\nACGT\n",
		"bare header later":   ">a\nAC\n>\nGT\n",
		"data first":          "ACGT\n>chr1\nAC\n",
		"data after blank":    "\n\nAC\n",
		"invalid byte":        ">chr1\nACGT\nAC!T\nGG\n>chr2\nAC\n",
		"invalid second":      ">chr1\nACGT\n>chr2\nAC\nA-C\n",
		"interior cr":         ">chr1\nAC\rGT\n",
		"trailing cr run":     ">chr1\nACGT\r\r\n\r\nGG\r",
		"space in body":       ">chr1\nAC GT\n",
		"name only spaces":    "> \t\nAC\n",
		"tabs":                ">>a\t b \t\n\nAC\n",
		"empty":               "",
		"newlines only":       "\n\r\n\n",
		"long line":           ">chr1\n" + long + "\nACGT\n>chr2\n" + long,
		"long line crlf":      ">chr1\n" + long[:65535] + "\r\r\n" + long + "\r\n",
		"long cr at boundary": ">chr1\n" + long[:65535] + "\r" + long + "\n",
		"long invalid":        ">chr1\n" + long + "!" + long + "\n",
		"long header":         ">" + strings.Repeat("h", 70_000) + " d\nAC\n",
	}
	// Random mixes of the pieces above.
	pieces := []string{">a\n", ">b c\n", "ACGT\n", "acgt\r\n", "\n", "\r\n", "RYN\n", "A!\n", ">\n", "GG", long[:70_000], "\r"}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		var sb strings.Builder
		if rng.Intn(4) > 0 {
			sb.WriteString(">r\n")
		}
		for j := rng.Intn(12); j > 0; j-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		cases[fmt.Sprintf("random %d", i)] = sb.String()
	}
	dir := t.TempDir()
	for name, in := range cases {
		want, wantErr := oracleReadAll(strings.NewReader(in))
		got, err := ReadAll(strings.NewReader(in))
		sameResult(t, name, got, want, err, wantErr)

		plain := filepath.Join(dir, "ref.fa")
		if err := os.WriteFile(plain, []byte(in), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err = ReadFile(plain)
		sameResult(t, name+" (file)", got, want, err, wantErr)

		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write([]byte(in))
		zw.Close()
		zipped := filepath.Join(dir, "ref.fa.gz")
		if err := os.WriteFile(zipped, gz.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err = ReadFile(zipped)
		sameResult(t, name+" (gz)", got, want, err, wantErr)
	}
}

// A read error inside a record wins over an invalid byte before it, as
// in the oracle, which read the whole body before parsing it; a
// truncated .gz fails the same way in both.
func TestReadErrorMatchesOracle(t *testing.T) {
	boom := errors.New("boom")
	for _, in := range []string{">chr1\nAC!T\nACGT", ">chr1\nACGT\nAC", ">chr1\nAC\n>chr2\nA!", ""} {
		want, wantErr := oracleReadAll(&failingReader{[]byte(in), boom})
		got, err := ReadAll(&failingReader{[]byte(in), boom})
		sameResult(t, fmt.Sprintf("%q", in), got, want, err, wantErr)
		if err == nil {
			t.Fatalf("%q: the read error was lost", in)
		}
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte(">chr1\n" + strings.Repeat("ACGT\n", 5000)))
	zw.Close()
	path := filepath.Join(t.TempDir(), "cut.fa.gz")
	if err := os.WriteFile(path, gz.Bytes()[:gz.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	f, ferr := os.Open(path)
	if ferr != nil {
		t.Fatal(ferr)
	}
	defer f.Close()
	zr, zerr := gzip.NewReader(f)
	if zerr != nil {
		t.Fatal(zerr)
	}
	want, wantErr := oracleReadAll(zr)
	sameResult(t, "truncated gz", got, want, err, wantErr)
	if err == nil {
		t.Fatal("truncated gz read without error")
	}
}

// ReadFile on a plain file decodes every record into one allocation
// sized from the file: a multi-record file's records do not each get
// one, and their allocations do not grow with the line count.
func TestReadFileAllocatesPerRecord(t *testing.T) {
	var sb strings.Builder
	for r := 0; r < 4; r++ {
		fmt.Fprintf(&sb, ">chr%d\n", r)
		for i := 0; i < 2000; i++ {
			sb.WriteString(strings.Repeat("ACGT", 15) + "\n")
		}
	}
	path := filepath.Join(t.TempDir(), "ref.fa")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadFile(path); err != nil {
			t.Fatal(err)
		}
	})
	// Per record: the Record, its name and its header string; per file:
	// the open file, the read buffer, the body allocation, the record
	// list and the timer. 8000 lines must not show.
	if allocs > 40 {
		t.Errorf("ReadFile of 4 records and 8000 lines: %v allocations", allocs)
	}
}
