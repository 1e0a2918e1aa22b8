package gnumap

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// ckptDataset is a dataset sized so interval checkpoints fire several
// times before the stream ends.
func ckptDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := SimulateDataset(SimConfig{GenomeLength: 40_000, SNPCount: 4, Coverage: 10, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func callsEqual(t *testing.T, want, got []SNPCall) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("call count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].GlobalPos != got[i].GlobalPos || want[i].Allele != got[i].Allele || want[i].Het != got[i].Het {
			t.Errorf("call %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestPipelineCheckpointResume is the single-process resume invariant
// at the public API level: interrupt a checkpointed run (Options.
// Checkpoint, honored by MapReadsFrom itself), rebuild the pipeline
// with Resume, hand it the reopened source, finish — the calls and
// cumulative stats match an uninterrupted run.
func TestPipelineCheckpointResume(t *testing.T) {
	ds := ckptDataset(t)
	opts := Options{Engine: EngineConfig{Workers: 4, Batch: 16, Queue: 2}}

	full, err := NewPipeline(ds.Reference, opts)
	if err != nil {
		t.Fatal(err)
	}
	fullSt, err := full.MapReadsFrom(SliceReadSource(ds.Reads))
	if err != nil {
		t.Fatal(err)
	}
	wantCalls, _, err := full.Call()
	if err != nil {
		t.Fatal(err)
	}

	ckPath := filepath.Join(t.TempDir(), "run.ckpt")
	reg := NewMetricsRegistry()
	opts1 := opts
	opts1.Metrics = reg
	opts1.Checkpoint = &CheckpointConfig{
		Path:          ckPath,
		EveryReads:    150,
		StopRequested: func() bool { return reg.Counter("ckpt.writes").Value() >= 2 },
	}
	p1, err := NewPipeline(ds.Reference, opts1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p1.MapReadsFrom(SliceReadSource(ds.Reads))
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("interrupted run returned %v, want ErrStopped", err)
	}
	if w := reg.Counter("ckpt.writes").Value(); w < 2 {
		t.Fatalf("only %d checkpoint writes before stop", w)
	}
	if b := reg.Counter("ckpt.bytes").Value(); b <= 0 {
		t.Errorf("ckpt.bytes = %d", b)
	}

	// Resume in a fresh pipeline, as a restarted process would.
	reg2 := NewMetricsRegistry()
	opts2 := opts
	opts2.Metrics = reg2
	opts2.Checkpoint = &CheckpointConfig{Path: ckPath, EveryReads: 150, Resume: true}
	p2, err := NewPipeline(ds.Reference, opts2)
	if err != nil {
		t.Fatal(err)
	}
	skip := p2.ReadsConsumed()
	if skip <= 0 || skip >= int64(len(ds.Reads)) {
		t.Fatalf("watermark %d of %d reads", skip, len(ds.Reads))
	}
	// One destination for the skip counter on every path: the process
	// registry (shared across tests, so compare the delta).
	skipped := ProcessMetrics().Counter("ckpt.resume.reads.skipped")
	before := skipped.Value()
	if _, err := p2.MapReadsFrom(SliceReadSource(ds.Reads)); err != nil {
		t.Fatal(err)
	}
	if got := skipped.Value() - before; got != skip {
		t.Errorf("ckpt.resume.reads.skipped grew by %d, want %d", got, skip)
	}
	if w := reg2.Counter("ckpt.writes").Value(); w < 1 {
		t.Errorf("resumed MapReadsFrom wrote %d checkpoints", w)
	}
	cum := p2.CumulativeStats()
	if cum.Mapped != fullSt.Mapped || cum.Unmapped != fullSt.Unmapped {
		t.Errorf("cumulative stats %+v, uninterrupted %+v", cum, fullSt)
	}
	if p2.ReadsConsumed() != int64(len(ds.Reads)) {
		t.Errorf("consumed %d reads, want %d", p2.ReadsConsumed(), len(ds.Reads))
	}
	gotCalls, _, err := p2.Call()
	if err != nil {
		t.Fatal(err)
	}
	callsEqual(t, wantCalls, gotCalls)
}

// TestResumeCheckpointMismatch: a checkpoint never loads into a
// pipeline whose call-affecting configuration differs.
func TestResumeCheckpointMismatch(t *testing.T) {
	ds := ckptDataset(t)
	ckPath := filepath.Join(t.TempDir(), "run.ckpt")
	p1, err := NewPipeline(ds.Reference, Options{Checkpoint: &CheckpointConfig{Path: ckPath, EveryReads: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.MapReadsFrom(SliceReadSource(ds.Reads[:200])); err != nil {
		t.Fatal(err)
	}
	resume := &CheckpointConfig{Path: ckPath, Resume: true}
	for name, opts := range map[string]Options{
		"ploidy": {Caller: CallerConfig{Ploidy: Diploid}},
		"band":   {Engine: EngineConfig{Band: 31}},
		"alpha":  {Caller: CallerConfig{Alpha: 0.01}},
		"memory": {Memory: MemCharDisc},
	} {
		opts.Checkpoint = resume
		if _, err := NewPipeline(ds.Reference, opts); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s change: resume returned %v, want ErrCheckpointMismatch", name, err)
		}
	}
	// Execution knobs must NOT invalidate the checkpoint.
	p3, err := NewPipeline(ds.Reference, Options{
		Engine:     EngineConfig{Workers: 2, Batch: 8, PhmmBatch: -1},
		Checkpoint: resume,
	})
	if err != nil {
		t.Errorf("execution-knob change rejected the checkpoint: %v", err)
	} else if n := p3.ReadsConsumed(); n <= 0 || n > 200 {
		t.Errorf("resumed watermark %d, want inside (0, 200]", n)
	}
}

// TestLoadStateTypedErrors: the rerouted SaveState/LoadState format
// rejects legacy raw blobs and truncated checkpoints with typed errors
// instead of feeding unvalidated bytes to the gob decoder.
func TestLoadStateTypedErrors(t *testing.T) {
	ds := ckptDataset(t)
	p, err := NewPipeline(ds.Reference, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadState(bytes.NewReader([]byte("not a checkpoint, just bytes"))); !errors.Is(err, ErrNotCheckpoint) {
		t.Errorf("legacy blob: %v, want ErrNotCheckpoint", err)
	}
	if _, err := p.MapReads(ds.Reads[:100]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if err := p.LoadState(bytes.NewReader(full[:len(full)/2])); !errors.Is(err, ErrCheckpointTruncated) {
		t.Errorf("truncated state: %v, want ErrCheckpointTruncated", err)
	}
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/2] ^= 0x40
	err = p.LoadState(bytes.NewReader(corrupt))
	if !errors.Is(err, ErrCheckpointChecksum) && !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("corrupt state: %v, want checksum or fingerprint error", err)
	}
	if err := p.LoadState(bytes.NewReader(full)); err != nil {
		t.Errorf("intact state rejected: %v", err)
	}
}

// TestRunClusterStreamCheckpointResume: the np=4 read-split streaming
// path writes resumable checkpoints; a stopped run picked up with
// Resume=true finishes with the same calls as an uninterrupted run.
func TestRunClusterStreamCheckpointResume(t *testing.T) {
	ds := ckptDataset(t)
	opts := Options{Engine: EngineConfig{Workers: 2, Batch: 8, Queue: 2}}
	wantCalls, wantSt, err := RunClusterStream(4, Channels, ReadSplit, ds.Reference, SliceReadSource(ds.Reads), opts)
	if err != nil {
		t.Fatal(err)
	}

	ckPath := filepath.Join(t.TempDir(), "cluster.ckpt")
	reg := NewMetricsRegistry()
	opts1 := opts
	opts1.Metrics = reg
	opts1.Checkpoint = &CheckpointConfig{
		Path:          ckPath,
		EveryReads:    150,
		Resume:        true, // no file yet: fresh start
		StopRequested: func() bool { return reg.Counter("ckpt.writes").Value() >= 2 },
	}
	_, _, err = RunClusterStream(4, Channels, ReadSplit, ds.Reference, SliceReadSource(ds.Reads), opts1)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("interrupted cluster run returned %v, want ErrStopped", err)
	}

	opts2 := opts
	opts2.Checkpoint = &CheckpointConfig{Path: ckPath, EveryReads: 150, Resume: true}
	gotCalls, gotSt, err := RunClusterStream(4, Channels, ReadSplit, ds.Reference, SliceReadSource(ds.Reads), opts2)
	if err != nil {
		t.Fatal(err)
	}
	if gotSt.Mapped != wantSt.Mapped || gotSt.Unmapped != wantSt.Unmapped {
		t.Errorf("resumed cluster stats %+v, want %+v", gotSt, wantSt)
	}
	callsEqual(t, wantCalls, gotCalls)
}

// TestRunClusterStreamCheckpointRejects: the placement with no
// whole-genome state to save (genome-split) refuses checkpointing, typed; the
// fault-tolerant read-split run, refused before the dealer kept a
// ledger, now checkpoints and calls what the plain run calls.
func TestRunClusterStreamCheckpointRejects(t *testing.T) {
	ds := ckptDataset(t)
	ck := &CheckpointConfig{Path: filepath.Join(t.TempDir(), "x.ckpt"), EveryReads: 100}

	opts := Options{Checkpoint: ck}
	if _, _, err := RunClusterStream(2, Channels, GenomeSplit, ds.Reference, SliceReadSource(ds.Reads[:50]), opts); !errors.Is(err, ErrModeUnsupported) {
		t.Errorf("genome-split checkpointing: %v, want ErrModeUnsupported", err)
	}
	want, _, err := RunClusterStream(2, Channels, ReadSplit, ds.Reference, SliceReadSource(ds.Reads), Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Cluster = ClusterConfig{OpTimeout: 5 * time.Second}
	got, _, err := RunClusterStream(2, Channels, ReadSplit, ds.Reference, SliceReadSource(ds.Reads), opts)
	if err != nil {
		t.Fatalf("fault-tolerant checkpointing: %v", err)
	}
	callsEqual(t, want, got)
	if _, err := os.Stat(ck.Path); err != nil {
		t.Errorf("fault-tolerant run wrote no checkpoint: %v", err)
	}
}
