package sam

import (
	"bytes"
	"strings"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
)

func TestHeaderAndRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	contigs := []genome.Contig{{Name: "chr1", Seq: dna.MustParseSeq("ACGTACGT")}}
	if err := w.WriteHeader(contigs, "gnumap-snp"); err != nil {
		t.Fatal(err)
	}
	rec := &Record{
		QName: "read one", // space must be sanitized
		Flag:  FlagReverse,
		RName: "chr1",
		Pos:   3,
		MapQ:  42,
		CIGAR: "4M",
		Seq:   dna.MustParseSeq("GTAC"),
		Qual:  []uint8{30, 30, 30, 30},
	}
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"@HD\tVN:1.6",
		"@SQ\tSN:chr1\tLN:8",
		"@PG\tID:gnumap-snp",
		"read_one\t16\tchr1\t3\t42\t4M\t*\t0\t0\tGTAC\t????",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\n") - strings.Count(out, "\n@") - 1; n != 1 {
		t.Errorf("%d record lines, want 1:\n%s", n, out)
	}
}

func TestUnmappedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(nil, "p"); err != nil {
		t.Fatal(err)
	}
	rd := &fastq.Read{Name: "u", Seq: dna.MustParseSeq("AC"), Qual: []uint8{10, 20}}
	if err := w.Write(UnmappedRecord(rd)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "u\t4\t*\t0\t0\t*\t*\t0\t0\tAC\t+5") {
		t.Errorf("unmapped record wrong:\n%s", buf.String())
	}
}

func TestWriteOrderEnforced(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Write(&Record{QName: "x", RName: "c", CIGAR: "1M"}); err == nil {
		t.Error("record before header accepted")
	}
	if err := w.WriteHeader(nil, "p"); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(nil, "p"); err == nil {
		t.Error("double header accepted")
	}
	if err := w.Write(&Record{QName: "x", RName: "", CIGAR: "1M"}); err == nil {
		t.Error("mapped record without contig accepted")
	}
}

func TestQualityCapAndEmptyName(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(nil, "p"); err != nil {
		t.Fatal(err)
	}
	rec := &Record{QName: "", RName: "c", Pos: 1, CIGAR: "1M",
		Seq: dna.MustParseSeq("A"), Qual: []uint8{200}}
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if !strings.Contains(buf.String(), "unnamed\t") {
		t.Error("empty name not replaced")
	}
	if !strings.Contains(buf.String(), "\t~\n") {
		t.Errorf("quality not capped at '~':\n%s", buf.String())
	}
}
