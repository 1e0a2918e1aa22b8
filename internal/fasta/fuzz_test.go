package fasta

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRead drives the FASTA parser with arbitrary bytes: ReadAll never
// panics, and returns either an error or records the Writer emits in a
// form that parses back to the same records (name, description and
// sequence) — the reference a run maps against is the one on disk.
func FuzzRead(f *testing.F) {
	f.Add([]byte(">chr1 test contig\nACGT\nNNAC\n>chr2\nGG\n"))
	f.Add([]byte(">chr1\r\nACGT\r\n\r\nAC\r\n")) // CRLF and blank lines
	f.Add([]byte(">chr1\nacgtnRYKM\n"))          // lowercase and ambiguity codes
	f.Add([]byte(">chr1\nACGT"))                 // no trailing newline
	f.Add([]byte(">empty\n>chr2\nAC\n"))         // empty body
	f.Add([]byte("ACGT\n>chr1\nAC\n"))           // data before the first header
	f.Add([]byte(">\nACGT\n"))                   // empty name
	f.Add([]byte(">chr1\nAC!T\n"))               // non-nucleotide byte
	f.Add([]byte(">>a\t b \t\n\n"))              // '>' in a name, tabs in a description
	f.Add([]byte("\x1f\x8b\x08\x00"))            // a gzip header handed to the plain reader
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			if recs != nil {
				t.Fatalf("ReadAll returned both records and error %v", err)
			}
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, rec := range recs {
			if rec.Name == "" {
				t.Fatal("ReadAll returned a record without a name")
			}
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("re-parse of written records failed: %v", err)
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("records changed through Write/ReadAll:\n%+v\n%+v", recs, again)
		}
	})
}
