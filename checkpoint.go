package gnumap

// Crash-safe checkpoint/resume (DESIGN.md §13). A long mapping run
// periodically quiesces its streaming pipeline and writes a durable
// checkpoint — config fingerprint, source watermark, mapping stats,
// accumulator state — atomically to one file. A resumed run loads the
// checkpoint (fingerprint-checked), skips the already-mapped prefix of
// the reopened source, and continues; the final calls match an
// uninterrupted run.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"gnumap/internal/ckpt"
	"gnumap/internal/core"
	"gnumap/internal/genome"
)

// ErrStopped reports a cooperative stop: the pipeline drained, the
// final checkpoint was written, and the run ended early by request
// (typically SIGINT/SIGTERM) rather than by error or end of input.
var ErrStopped = core.ErrStopped

// Typed checkpoint failure modes, re-exported for errors.Is. Every
// decode failure wraps exactly one of these.
var (
	// ErrNotCheckpoint: the file does not start with the checkpoint magic
	// (e.g. a legacy raw-state blob, or not a checkpoint at all).
	ErrNotCheckpoint = ckpt.ErrNotCheckpoint
	// ErrCheckpointVersion: written by a format version this build
	// does not read.
	ErrCheckpointVersion = ckpt.ErrVersion
	// ErrCheckpointTruncated: the file ends before a declared section.
	ErrCheckpointTruncated = ckpt.ErrTruncated
	// ErrCheckpointChecksum: a section's CRC does not match.
	ErrCheckpointChecksum = ckpt.ErrChecksum
	// ErrCheckpointTooLarge: a declared length exceeds the bound implied
	// by the reference.
	ErrCheckpointTooLarge = ckpt.ErrTooLarge
	// ErrCheckpointMismatch: the checkpoint belongs to a run with
	// different call-affecting configuration (reference, memory mode,
	// band, ploidy, parameters).
	ErrCheckpointMismatch = ckpt.ErrMismatch
)

// CheckpointConfig configures durable checkpointing of a mapping run
// (Options.Checkpoint: honored by Pipeline.MapReadsFrom, in one process
// or read-split across ranks).
type CheckpointConfig struct {
	// Path is the checkpoint file. Every write atomically replaces it
	// (temp file + fsync + rename), so a crash at any instant leaves
	// either the previous or the new complete checkpoint.
	Path string
	// EveryReads triggers a checkpoint each time this many reads have
	// been consumed since the last one (0 = no read-count trigger).
	EveryReads int64
	// Every triggers a checkpoint when this much wall time has passed
	// since the last one (0 = no time trigger).
	Every time.Duration
	// Resume: load Path before mapping (NewPipeline does it for a
	// Pipeline; ReadsConsumed then reports the watermark), skip the
	// watermark prefix of the first source mapped, and continue from the
	// saved state. A missing file is a fresh start, not an error, so a
	// supervisor can pass the same flags on every (re)invocation.
	Resume bool
	// StopRequested, when non-nil, is polled between batches; returning
	// true drains the pipeline, writes a final checkpoint, and makes
	// the run return ErrStopped. Wire a signal handler here for
	// graceful shutdown.
	StopRequested func() bool
}

// fingerprint pins checkpoints to this pipeline's call-affecting
// configuration.
func (p *Pipeline) fingerprint() ckpt.Fingerprint {
	return fingerprintFor(p.ref, p.opts)
}

// fingerprintFor renders the call-affecting configuration — and only
// that; execution knobs (workers, batch, queue, PHMM lane width) may
// change freely across a resume — into a checkpoint fingerprint. Both
// configs are resolved first so a zero value and its explicit default
// fingerprint identically.
func fingerprintFor(ref *genome.Reference, opts Options) ckpt.Fingerprint {
	ec := opts.Engine.Resolved()
	cc := opts.Caller.Resolved()
	canonical := fmt.Sprintf(
		"phmm=%+v align=%v k=%d pad=%d attr=%v maxCand=%d minSeedVotes=%d minVoteFrac=%v maxBucket=%d minPosterior=%v minLocLogLik=%v viterbi=%t noQual=%t bestHit=%t alpha=%v fdr=%t minDepth=%v minHetMinor=%v",
		ec.PHMM, ec.AlignMode, ec.K, ec.Pad, ec.Attribution,
		ec.MaxCandidates, ec.MinSeedVotes, ec.MinVoteFraction,
		ec.MaxBucket, ec.MinPosterior, ec.MinLocLogLik,
		ec.ViterbiOnly, ec.IgnoreQualities, ec.BestHitOnly,
		cc.Alpha, cc.UseFDR, cc.MinDepth, cc.MinHetMinorFraction)
	return ckpt.Fingerprint{
		RefDigest:    ref.Digest(),
		RefLen:       int64(ref.Len()),
		Memory:       int32(opts.Memory),
		Band:         int32(opts.Engine.EffectiveBand()),
		Ploidy:       int32(cc.Ploidy),
		ParamsDigest: ckpt.DigestParams(canonical),
	}
}

// ckptCommitter is the mapping run's checkpoint subscriber, with the
// durable part taken off the critical path: it runs while the pipeline
// (or, read-split, the whole cluster) is quiesced, folds the run-local
// counters onto the resumed base, and hands the snapshot to a background
// goroutine for the temp-file write + fsync + rename. The run stalls
// only for the state snapshot itself, and at most one commit is ever in
// flight — the subscriber first waits out the previous commit (surfacing
// its error, which aborts the run), so commits land in order and a crash
// at any instant still leaves either the previous or the new complete
// checkpoint on disk. finish must run after the mapping call returns;
// until it does, the newest checkpoint may not be durable yet.
type ckptCommitter struct {
	path string
	// base is what the run started from: the fingerprint every commit
	// carries and the resumed counters every commit adds to.
	base ckpt.Checkpoint
	reg  *MetricsRegistry

	// pending holds the in-flight commit's result; a nil placeholder
	// means no commit is in flight.
	pending chan error
}

func newCkptCommitter(path string, base ckpt.Checkpoint, reg *MetricsRegistry) *ckptCommitter {
	c := &ckptCommitter{path: path, base: base, reg: reg, pending: make(chan error, 1)}
	c.pending <- nil
	return c
}

// subscriber hangs the committer on a mapping run's quiesce barrier at
// cc's cadence. The barrier's state is a private snapshot (State
// allocates), so retaining it past the quiesce window is safe.
func (c *ckptCommitter) subscriber(cc *CheckpointConfig) core.BarrierSubscriber {
	return core.BarrierSubscriber{EveryReads: cc.EveryReads, Every: cc.Every, Run: func(b *core.Barrier) error {
		state, err := b.State()
		if err != nil {
			return err
		}
		if err := <-c.pending; err != nil {
			c.pending <- err // keep finish deterministic after an abort
			return err
		}
		cp := &ckpt.Checkpoint{
			Fingerprint:   c.base.Fingerprint,
			ReadsConsumed: c.base.ReadsConsumed + b.Consumed,
			Mapped:        c.base.Mapped + b.Stats.Mapped,
			Unmapped:      c.base.Unmapped + b.Stats.Unmapped,
			Locations:     c.base.Locations + b.Stats.Locations,
			State:         state,
		}
		go func() {
			start := time.Now()
			n, err := ckpt.WriteFile(c.path, cp)
			if err == nil && c.reg != nil {
				c.reg.Counter("ckpt.writes").Inc()
				c.reg.Counter("ckpt.bytes").Add(n)
				c.reg.Timer("ckpt.write.seconds").ObserveDuration(time.Since(start))
			}
			c.pending <- err
		}()
		return nil
	}}
}

// finish waits for the in-flight commit (if any) to reach disk and
// folds its failure into the mapping call's outcome: a run that ended
// cleanly or by cooperative stop is only as good as its last commit.
// Safe to call more than once.
func (c *ckptCommitter) finish(runErr error) error {
	ferr := <-c.pending
	c.pending <- ferr
	if ferr != nil && (runErr == nil || errors.Is(runErr, ErrStopped)) {
		return fmt.Errorf("gnumap: checkpoint commit: %w", ferr)
	}
	return runErr
}

// skipReads discards the first n reads of src — the already-mapped
// prefix named by a resume watermark — and counts them into
// ProcessMetrics. The source ending before n reads is an error: the input
// shrank since the checkpoint was taken.
func skipReads(src ReadSource, n int64) error {
	for i := int64(0); i < n; i++ {
		if _, err := src.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return fmt.Errorf("gnumap: source ended after %d of %d watermark reads; input changed since checkpoint", i, n)
			}
			return err
		}
	}
	if n > 0 {
		ProcessMetrics().Counter("ckpt.resume.reads.skipped").Add(n)
	}
	return nil
}

// resume adopts the checkpoint at path, fingerprint-checked, and leaves
// its watermark pending for the first source mapped. A missing file is a
// fresh start.
func (p *Pipeline) resume(path string) error {
	cp, err := ckpt.ReadFile(path, ckpt.MaxPayloadFor(p.ref.Len()))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := p.fingerprint().Check(cp.Fingerprint); err != nil {
		return fmt.Errorf("gnumap: resume %s: %w", path, err)
	}
	if err := p.adopt(cp); err != nil {
		return fmt.Errorf("gnumap: resume %s: %w", path, err)
	}
	p.skip = cp.ReadsConsumed
	return nil
}

// ReadsConsumed returns the cumulative source watermark: reads mapped
// by this pipeline plus any prefix adopted from a resumed checkpoint.
func (p *Pipeline) ReadsConsumed() int64 { return p.consumed }

// CumulativeStats returns the mapping statistics accumulated across
// every mapping call of the pipeline's life, including counts adopted
// from a resumed checkpoint (per-call MapStats cover only their call).
func (p *Pipeline) CumulativeStats() MapStats { return p.cum }
