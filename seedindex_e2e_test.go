package gnumap

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"gnumap/internal/kmer"
)

// vcfWith maps the dataset through a pipeline configured with opts and
// renders the calls as VCF.
func vcfWith(t *testing.T, ds *Dataset, opts Options) []byte {
	t.Helper()
	p, err := NewPipeline(ds.Reference, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MapReads(ds.Reads); err != nil {
		t.Fatal(err)
	}
	calls, _, err := p.Call()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteVCF(&buf, calls); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSeedIndexEndToEnd is the persistence smoke: build a large-seed
// index, persist it, mmap it back, and require byte-identical VCF
// between the fresh-built and file-loaded runs.
func TestSeedIndexEndToEnd(t *testing.T) {
	ds := dataset(t)
	const k = 18
	built, err := BuildSeedIndex(ds.Reference, k)
	if err != nil {
		t.Fatal(err)
	}
	lix, ok := built.(*LargeSeedIndex)
	if !ok {
		t.Fatalf("k=%d built %T, want *LargeSeedIndex", k, built)
	}
	path := filepath.Join(t.TempDir(), "ref.gnix")
	n, err := SaveSeedIndex(path, lix, ds.Reference)
	if err != nil {
		t.Fatal(err)
	}
	info, err := ReadSeedIndexInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.K != k || info.FileBytes != n || info.SeqLen != 40000 {
		t.Fatalf("info = %+v", info)
	}

	var fresh Options
	fresh.Engine.SeedIndex = lix
	want := vcfWith(t, ds, fresh)

	loadedIx, err := OpenSeedIndex(path, ds.Reference)
	if err != nil {
		t.Fatal(err)
	}
	defer loadedIx.Close()
	var loaded Options
	loaded.Engine.SeedIndex = loadedIx
	reg := NewMetricsRegistry()
	loaded.Metrics = reg
	got := vcfWith(t, ds, loaded)
	if !bytes.Equal(want, got) {
		t.Fatal("VCF from the mmap-loaded index differs from the fresh build")
	}
	// The selectivity metrics must flow for the large index too.
	if reg.Counter("map.seed.hits").Value() == 0 {
		t.Error("map.seed.hits not counted")
	}
	if reg.Gauge("index.bytes").Value() <= 0 {
		t.Error("index.bytes gauge not set")
	}
	if n := reg.Timer("index.build.seconds").Count(); n != 0 {
		t.Errorf("an opened index recorded %d index builds", n)
	}

	// A different reference must be refused by fingerprint.
	other, err := SimulateDataset(SimConfig{GenomeLength: 40000, SNPCount: 4, Coverage: 1, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSeedIndex(path, other.Reference); !errors.Is(err, kmer.ErrRefMismatch) {
		t.Fatalf("foreign reference: err = %v, want ErrRefMismatch", err)
	}
}

// TestSeedLenConfig: Engine.K above the direct ceiling builds the large
// index inside the pipeline, and still recovers the planted SNPs.
func TestSeedLenConfig(t *testing.T) {
	ds := dataset(t)
	var opts Options
	opts.Engine.K = 20
	p, err := NewPipeline(ds.Reference, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MapReads(ds.Reads); err != nil {
		t.Fatal(err)
	}
	calls, _, err := p.Call()
	if err != nil {
		t.Fatal(err)
	}
	if m := Evaluate(calls, ds.Truth); m.TP < 3 {
		t.Errorf("large-seed run recovered %d/%d SNPs", m.TP, len(ds.Truth))
	}
}

// TestSeedIndexMismatchedConfig: an index whose K or reference length
// disagrees with the pipeline must be rejected at construction.
func TestSeedIndexMismatchedConfig(t *testing.T) {
	ds := dataset(t)
	ix, err := BuildSeedIndex(ds.Reference, 16)
	if err != nil {
		t.Fatal(err)
	}
	var opts Options
	opts.Engine.SeedIndex = ix
	opts.Engine.K = 18
	if _, err := NewPipeline(ds.Reference, opts); err == nil {
		t.Error("k mismatch accepted")
	}
	opts.Engine.K = 0 // adopt the index's K — must work
	if _, err := NewPipeline(ds.Reference, opts); err != nil {
		t.Errorf("adopting index K failed: %v", err)
	}
}
