package gnumap

import (
	"bytes"
	"path/filepath"
	"testing"
)

// End-to-end identity of the batched wavefront Pair-HMM kernel: running
// the full streaming pipeline with Engine.PhmmBatch on vs. off must produce
// exactly the same SNP calls. Batched lanes are bit-identical to scalar
// AlignBanded calls and the mapper emits each read's locations in
// candidate order, so not even the call scores may drift. Runs under -race in CI
// (make race covers the root package).
func TestBatchedKernelCallIdentityE2E(t *testing.T) {
	ds := dataset(t)
	fq := filepath.Join(t.TempDir(), "reads.fq")
	if err := WriteReads(fq, ds.Reads, Sanger); err != nil {
		t.Fatal(err)
	}

	call := func(phmmBatch int) []SNPCall {
		t.Helper()
		cfg := EngineConfig{Workers: 4, Batch: 32, Queue: 2, PhmmBatch: phmmBatch}
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

	want := call(-1) // scalar kernel only
	if len(want) == 0 {
		t.Fatal("scalar baseline called no SNPs; dataset too weak for an identity test")
	}
	// Position/allele identity is the contract (multi-worker shard
	// accumulation reorders float adds between runs, so scores are
	// compared bit-exactly only by the single-worker test in
	// internal/core). Width 5 exercises the scalar-leftover fallback.
	for _, width := range []int{8, 5} {
		sameCalls(t, "batched streaming", call(width), want)
	}
}

// TestBatchSizeVCFIdentityE2E: lanes are packed across the reads of a
// work batch, so -batch decides which alignments share a sweep — and
// must decide nothing else. On one worker the VCF is byte-identical
// whether a batch is one read (no packing), one chunk, or several, and
// identical to the scalar kernel's.
func TestBatchSizeVCFIdentityE2E(t *testing.T) {
	ds := dataset(t)
	vcf := func(batch, phmmBatch int) []byte {
		t.Helper()
		p, err := NewPipeline(ds.Reference, Options{Engine: EngineConfig{Workers: 1, Batch: batch, PhmmBatch: phmmBatch}})
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
	want := vcf(1, -1) // scalar kernel, a read at a time
	if !bytes.Contains(want, []byte("\tPASS\t")) {
		t.Fatal("scalar baseline called no SNPs; dataset too weak for an identity test")
	}
	for _, batch := range []int{1, 64, 200} {
		if got := vcf(batch, 0); !bytes.Equal(got, want) {
			t.Errorf("-batch %d: VCF differs from the scalar read-at-a-time run", batch)
		}
	}
}
