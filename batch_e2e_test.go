package gnumap

import (
	"bytes"
	"path/filepath"
	"testing"
)

// End-to-end identity of the batched wavefront Pair-HMM kernel: running
// the full streaming pipeline with 8 or 5 lanes per sweep must produce
// exactly the same SNP calls as with one (Engine.PhmmBatch -1: any value
// below 2). A lane does not depend on the lanes beside it and the mapper
// emits each read's locations in candidate order, so not even the call
// scores may drift. Runs under -race in CI
// (make race covers the root package).
func TestBatchedKernelCallIdentityE2E(t *testing.T) {
	ds := dataset(t)
	fq := filepath.Join(t.TempDir(), "reads.fq")
	if err := WriteReads(fq, ds.Reads, Sanger); err != nil {
		t.Fatal(err)
	}

	call := func(phmmBatch int) []SNPCall {
		t.Helper()
		cfg := EngineConfig{Workers: 4, PhmmBatch: phmmBatch}
		p, err := NewPipeline(ds.Reference, Options{Engine: cfg})
		if err != nil {
			t.Fatal(err)
		}
		src, err := OpenReads(fq, Sanger)
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.MapReadsFrom(src)
		if cerr := src.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		calls, _, err := p.Call()
		if err != nil {
			t.Fatal(err)
		}
		return calls
	}

	want := call(-1) // one lane per sweep
	if len(want) == 0 {
		t.Fatal("one-lane baseline called no SNPs; dataset too weak for an identity test")
	}
	// Position/allele identity is the contract (multi-worker shard
	// accumulation reorders float adds between runs, so scores are
	// compared bit-exactly only by the single-worker test in
	// internal/core). Width 5 exercises narrow tail groups.
	for _, width := range []int{8, 5} {
		sameCalls(t, "batched streaming", call(width), want)
	}
}

// TestBatchSizeVCFIdentityE2E: lanes are packed across the reads of a
// work batch, which decides which alignments share a sweep — and must
// decide nothing else. On one worker the VCF of the default lane
// packing is byte-identical to one-lane sweeps'. (How reads are grouped
// into mapBatch calls is TestMapReadsBatchedMatchesScalar's axis, in
// internal/core.)
func TestBatchSizeVCFIdentityE2E(t *testing.T) {
	ds := dataset(t)
	vcf := func(phmmBatch int) []byte {
		t.Helper()
		p, err := NewPipeline(ds.Reference, Options{Engine: EngineConfig{Workers: 1, PhmmBatch: phmmBatch}})
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
		if err := WriteVCF(&buf, calls); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := vcf(-1) // one lane per sweep
	if !bytes.Contains(want, []byte("\tPASS\t")) {
		t.Fatal("one-lane baseline called no SNPs; dataset too weak for an identity test")
	}
	if got := vcf(0); !bytes.Equal(got, want) {
		t.Error("VCF of the default lane packing differs from the one-lane run")
	}
}
