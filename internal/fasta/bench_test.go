package fasta

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gnumap/internal/dna"
)

// BenchmarkReadFile4M parses a 4 Mbp single-record reference in 60-column
// lines, the shape of the repo benchmark's wide-k20-w1, with ReadFile and
// with the oracle reader (one ReadBytes slice per line, one body copy).
func BenchmarkReadFile4M(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seq := make(dna.Seq, 4_000_000)
	for i := range seq {
		seq[i] = dna.Code(rng.Intn(4))
	}
	path := filepath.Join(b.TempDir(), "ref.fa")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	w := NewWriter(f)
	w.Width = 60
	if err := w.Write(&Record{Name: "chr1", Seq: seq}); err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		read func() error
	}{
		{"ReadFile", func() error { _, err := ReadFile(path); return err }},
		{"oracle", func() error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = oracleReadAll(f)
			return err
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(seq)))
			for i := 0; i < b.N; i++ {
				if err := c.read(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
