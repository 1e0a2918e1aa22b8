package core

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"gnumap/internal/dna"
	"gnumap/internal/fastq"
)

func TestWriteAlignmentsEndToEnd(t *testing.T) {
	p := makePipeline(t, 20000, 1, 1, 71)
	eng, err := NewEngine(p.ref, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-built reads at known positions plus one garbage read.
	qual := make([]uint8, 62)
	for i := range qual {
		qual[i] = 30
	}
	fwd := &fastq.Read{Name: "fwd", Seq: p.ref.Seq()[5000:5062].Clone(), Qual: qual}
	rev := &fastq.Read{Name: "rev", Seq: p.ref.Seq()[7000:7062].ReverseComplement(), Qual: qual}
	junk := make(dna.Seq, 62)
	for i := range junk {
		junk[i] = dna.Code(i % 4)
	}
	garbage := &fastq.Read{Name: "junk", Seq: junk, Qual: qual}

	var buf bytes.Buffer
	if err := eng.WriteAlignments(&buf, fastq.SliceSource([]*fastq.Read{fwd, rev, garbage}), "test"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "@SQ\tSN:chrE\tLN:20000") {
		t.Errorf("header missing:\n%s", firstLines(out, 3))
	}
	recs := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "@") {
			continue
		}
		f := strings.Split(line, "\t")
		recs[f[0]] = f
	}
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3", len(recs))
	}
	f := recs["fwd"]
	if f[2] != "chrE" || f[3] != "5001" || f[5] != "62M" {
		t.Errorf("fwd record wrong: %v", f)
	}
	if flag := mustInt(t, f[1]); flag != 0 {
		t.Errorf("fwd flag = %d", flag)
	}
	r := recs["rev"]
	if r[3] != "7001" || r[5] != "62M" {
		t.Errorf("rev record wrong: %v", r)
	}
	if flag := mustInt(t, r[1]); flag&0x10 == 0 {
		t.Errorf("rev flag = %d, want reverse bit", flag)
	}
	// The reverse record's SEQ must be in reference orientation.
	if r[9] != p.ref.Seq()[7000:7062].String() {
		t.Errorf("rev SEQ not in reference orientation")
	}
	j := recs["junk"]
	if flag := mustInt(t, j[1]); flag&0x4 == 0 {
		t.Errorf("junk flag = %d, want unmapped bit", flag)
	}
	// Unique alignments get high mapping quality.
	if q := mustInt(t, f[4]); q < 30 {
		t.Errorf("fwd MapQ = %d, want high", q)
	}
}

func TestWriteAlignmentsMultiMapLowMapQ(t *testing.T) {
	p := makePipeline(t, 10000, 1, 1, 73)
	g := p.ref.Seq()
	copy(g[6000:6300], g[2000:2300])
	qual := make([]uint8, 62)
	for i := range qual {
		qual[i] = 30
	}
	rd := &fastq.Read{Name: "dup", Seq: g[2100:2162].Clone(), Qual: qual}
	eng, err := NewEngine(p.ref, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.WriteAlignments(&buf, fastq.SliceSource([]*fastq.Read{rd}), "test"); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "@") {
			continue
		}
		f := strings.Split(line, "\t")
		if q := mustInt(t, f[4]); q > 10 {
			t.Errorf("ambiguous read MapQ = %d, want ~3 (50/50 split)", q)
		}
	}
}

func TestMapQFromWeight(t *testing.T) {
	if mapQFromWeight(1) != 60 || mapQFromWeight(0) != 0 {
		t.Error("extremes wrong")
	}
	if q := mapQFromWeight(0.5); q != 3 {
		t.Errorf("mapQ(0.5) = %d, want 3", q)
	}
	if q := mapQFromWeight(0.999999); q != 60 {
		t.Errorf("mapQ(~1) = %d, want 60", q)
	}
}

func mustInt(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
