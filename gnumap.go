// Package gnumap is the public API of the GNUMAP-SNP reproduction: a
// probabilistic Pair-Hidden-Markov-Model read mapper and SNP caller
// with likelihood-ratio-test significance, parallel on shared memory
// and on a simulated message-passing cluster, with the paper's three
// accumulator memory layouts (NORM, CHARDISC, CENTDISC).
//
// # Quick start
//
//	ds, _ := gnumap.SimulateDataset(gnumap.SimConfig{GenomeLength: 100000, SNPCount: 10, Coverage: 12, Seed: 1})
//	p, _ := gnumap.NewPipeline(ds.Reference, gnumap.Options{})
//	p.MapReads(ds.Reads)
//	calls, _, _ := p.Call()
//	fmt.Println(gnumap.Evaluate(calls, ds.Truth))
//
// The heavy lifting lives in internal packages (phmm, genome, lrt,
// cluster, ...); this package wires them together and re-exports the
// types a downstream user needs.
package gnumap

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"gnumap/internal/baseline"
	"gnumap/internal/ckpt"
	"gnumap/internal/cluster"
	"gnumap/internal/core"
	"gnumap/internal/dna"
	"gnumap/internal/fasta"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/kmer"
	"gnumap/internal/lrt"
	"gnumap/internal/obs"
	"gnumap/internal/phmm"
	"gnumap/internal/qc"
	"gnumap/internal/simulate"
	"gnumap/internal/snp"
)

// Read is one sequencing read (name, bases, Phred qualities).
type Read = fastq.Read

// Contig is one named reference sequence.
type Contig = fasta.Record

// SNPCall is one called variant.
type SNPCall = snp.Call

// Metrics is the TP/FP/FN accuracy accounting against a truth set.
type Metrics = snp.Metrics

// TruthSNP is one planted variant of a simulated dataset.
type TruthSNP = simulate.SNP

// EngineConfig tunes the mapper (see internal/core.Config for fields;
// the zero value selects paper defaults).
type EngineConfig = core.Config

// MapStats counts mapping outcomes.
type MapStats = core.Stats

// CallerConfig tunes SNP calling (significance level, ploidy, FDR).
type CallerConfig = snp.Config

// CallStats summarizes a calling run.
type CallStats = snp.Stats

// MemoryMode selects the accumulator layout.
type MemoryMode = genome.Mode

// The accumulator memory layouts (paper §VI-B).
const (
	MemNorm     = genome.Norm
	MemCharDisc = genome.CharDisc
	MemCentDisc = genome.CentDisc
)

// DefaultPhmmBatch is the default group size of one batched wavefront
// Pair-HMM sweep, the mapper's only forward-backward kernel; every sweep
// is this many lanes wide, a smaller group padded. Set via
// EngineConfig.PhmmBatch (0 selects this default; other values are
// clamped into [1, DefaultPhmmBatch]). Results are the same at any
// group size.
const DefaultPhmmBatch = core.DefaultPhmmBatch

// Ploidy selects the LRT hypothesis family.
type Ploidy = lrt.Ploidy

// The ploidy models (paper Eq. 1 and Eq. 2).
const (
	Monoploid = lrt.Monoploid
	Diploid   = lrt.Diploid
)

// QualityEncoding selects the FASTQ quality encoding.
type QualityEncoding = fastq.Encoding

// The supported FASTQ quality encodings.
const (
	Sanger     = fastq.Sanger
	Illumina13 = fastq.Illumina13
)

// Options configures a Pipeline.
type Options struct {
	// Engine tunes mapping; zero value = paper defaults.
	Engine EngineConfig
	// Memory selects the accumulator layout (default MemNorm).
	Memory MemoryMode
	// Caller tunes SNP calling; zero value = monoploid, α = 0.05.
	Caller CallerConfig
	// Cluster places the run: in this process (the zero value) or on a
	// simulated cluster, with its fault model (op deadlines, heartbeat
	// failure detection, chaos injection).
	Cluster ClusterConfig
	// Metrics, when non-nil, receives the pipeline's stage timers and
	// counters (index build, mapping, Pair-HMM, calling, coverage QC as
	// qc.coverage.seconds). On a cluster it is rank 0's
	// registry and the other ranks get one each;
	// Pipeline.MetricsReport merges them.
	Metrics *MetricsRegistry
	// Checkpoint, when non-nil, makes Pipeline.MapReadsFrom write durable
	// checkpoints (and honor Resume/StopRequested) at every placement.
	Checkpoint *CheckpointConfig
	// Incremental, when non-nil, overlaps SNP calling with a Pipeline's
	// mapping: the pipeline's caller also sweeps written genome tiles at
	// quiesce barriers (the same barriers Checkpoint uses, each on its
	// own cadence), so Pipeline.Call re-sweeps only what the tail wrote.
	Incremental *IncrementalCallConfig

	// callWorkers, when positive, sweeps on this many workers instead of
	// the engine's resolved Workers. Test-only: the tests that vary only
	// the calling sweep's worker count.
	callWorkers int
}

// MetricsRegistry is a set of named counters, gauges, and latency
// histograms recording where a run spends its time (see internal/obs
// for the metric taxonomy). Registries are safe for concurrent use.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is one registry's point-in-time state, tagged with
// the rank that produced it.
type MetricsSnapshot = obs.Snapshot

// MetricsReport aggregates per-rank snapshots: each rank's snapshot,
// the ranks that died before reporting, and the merged totals.
type MetricsReport = obs.Report

// NewMetricsRegistry returns an empty registry for Options.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ProcessMetrics returns the process-wide registry, which collects
// rank-independent activity such as FASTA/FASTQ file I/O.
func ProcessMetrics() *MetricsRegistry { return obs.Default() }

// NewMetricsReport merges per-scope snapshots into a report.
// Pipeline.MetricsReport does it for a pipeline's run.
func NewMetricsReport(snaps []MetricsSnapshot, deadRanks []int) (*MetricsReport, error) {
	return obs.NewReport(snaps, deadRanks)
}

// ClusterConfig is where a run executes — its placement (Nodes,
// Transport, Split) — and the cluster's fault model: operation
// deadlines, heartbeat failure detection, and optional deterministic
// fault injection. One Pipeline runs at every placement.
type ClusterConfig struct {
	// Nodes is the simulated cluster size. Above 1, a Pipeline's mapping
	// calls run on that many ranks, placed by Split; 0 and 1 map in this
	// process.
	Nodes int
	// Transport connects the nodes (default Channels).
	Transport Transport
	// Split is the paper's parallelization strategy (default ReadSplit).
	// Under ReadSplit rank 0 is the pipeline's own engine and
	// accumulator, and folds the other ranks' state into it. Under
	// GenomeSplit a rank's slice is its range of the pipeline's one
	// accumulator (the ranks' slices tile it in rank order), written
	// only by that rank and by the boundary spills addressed to it.
	Split SplitMode
	// OpTimeout bounds every cluster Send/Recv/collective; in read-split
	// mode rank 0 then also keeps a ledger of dealt batches and re-deals
	// a lost worker's share (0 = off). A positive deadline also starts
	// the failure detector, heartbeating every tenth of it, so a slow
	// rank is not declared dead.
	OpTimeout time.Duration
	// Fault, when non-nil, injects deterministic chaos (drops, dups,
	// delays, reorders, rank crashes) from a seeded RNG.
	Fault *FaultConfig
}

// FaultConfig parameterizes deterministic fault injection.
type FaultConfig = cluster.FaultConfig

// ParseChaosSpec parses a -chaos CLI spec like
// "seed=42,drop=0.02,dup=0.01,crash=2@100" into a FaultConfig.
func ParseChaosSpec(spec string) (FaultConfig, error) {
	return cluster.ParseFaultSpec(spec)
}

// Pipeline is a reference plus mapping and calling state: build one,
// feed it reads (possibly in several MapReadsFrom/MapReads calls —
// accumulation is online), then Call.
type Pipeline struct {
	ref  *genome.Reference
	eng  *core.Engine
	acc  genome.Accumulator
	opts Options
	// cum/consumed track mapping outcomes across the pipeline's life
	// (all mapping calls plus any resumed checkpoint) — the counters
	// checkpoints persist so a resumed job's accounting stays honest.
	cum      MapStats
	consumed int64
	// skip is a resumed checkpoint's watermark, pending until the first
	// source is mapped (its already-mapped prefix is discarded).
	skip int64
	// caller sweeps the accumulator's tiles for every call set of the
	// pipeline's life; inc hangs provisional sweeps on the mapping
	// barriers (Options.Incremental), nil otherwise.
	caller *snp.IncrementalCaller
	inc    *incrementalRun
	// rankRegs are a cluster pipeline's registries by rank when metrics
	// are on (rank 0's is the engine's), rankSnaps what the latest mapping
	// call gathered from the worker ranks, and deadRanks the ranks that
	// were lost or never reported.
	rankRegs  []*MetricsRegistry
	rankSnaps []MetricsSnapshot
	deadRanks []int
}

// NewPipeline indexes the reference and allocates the accumulator. With
// Options.Checkpoint.Resume it also adopts the checkpoint file's state
// when one exists.
func NewPipeline(reference []*Contig, opts Options) (*Pipeline, error) {
	if cc := opts.Cluster; cc.Nodes > 1 && cc.Split != ReadSplit && cc.Split != GenomeSplit {
		return nil, fmt.Errorf("gnumap: unknown split mode %d", int(cc.Split))
	}
	if opts.Metrics != nil {
		if opts.Engine.Metrics == nil {
			opts.Engine.Metrics = opts.Metrics
		}
		if opts.Caller.Metrics == nil {
			opts.Caller.Metrics = opts.Metrics
		}
	}
	ref, err := genome.NewReference(reference)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(ref, opts.Engine)
	if err != nil {
		return nil, err
	}
	acc, err := genome.New(opts.Memory, ref.Len())
	if err != nil {
		return nil, err
	}
	p := &Pipeline{ref: ref, eng: eng, acc: acc, opts: opts}
	if cc := opts.Checkpoint; cc != nil {
		if cc.Path == "" {
			return nil, fmt.Errorf("gnumap: checkpoint path required")
		}
		if cc.Resume {
			if err := p.resume(cc.Path); err != nil {
				return nil, err
			}
		}
	}
	// State adopted later (LoadState) needs no new caller: loading counts
	// a write on every tile, so the next sweep covers it.
	// -workers is the one parallelism knob: the sweep runs on the
	// mapping pool's resolved worker count.
	workers := eng.Config().Workers
	if opts.callWorkers > 0 {
		workers = opts.callWorkers
	}
	if p.caller, err = snp.NewIncrementalCaller(ref, acc, opts.Caller, workers); err != nil {
		return nil, err
	}
	if opts.Incremental != nil {
		p.inc = p.newIncrementalRun()
	}
	return p, nil
}

// MapReads maps an in-memory batch of reads: MapReadsFrom over a slice
// source.
func (p *Pipeline) MapReads(reads []*Read) (MapStats, error) {
	return p.MapReadsFrom(SliceReadSource(reads))
}

// MapReadsFrom maps every read the source yields through the bounded
// mapping pipeline: resident memory is capped at (4 + Engine.Workers)
// batches of 64 reads regardless of the input size. It may be called
// repeatedly; the returned stats cover this call (CumulativeStats covers
// the pipeline's life). With Options.Cluster.Nodes > 1 the same step
// runs on that many ranks — read-split, where rank 0 deals the source
// and folds the ranks' state into the pipeline's accumulator, or
// genome-split, where rank 0 broadcasts it and each rank writes its
// slice of that accumulator — and everything after it (Call,
// WritePileup, WriteSAM, CoverageStats, SaveState, MetricsReport) is
// unchanged.
//
// Options.Checkpoint and Options.Incremental subscribe to the run's
// quiesce barriers. Checkpoint counters are cumulative across the
// pipeline's life (including a resumed checkpoint, whose watermark
// prefix is skipped from the first source), so the watermark is always
// "reads consumed since the original start of the job". Returns
// ErrStopped, with a final checkpoint written, when StopRequested fires.
func (p *Pipeline) MapReadsFrom(src ReadSource) (MapStats, error) {
	if err := skipReads(src, p.skip); err != nil {
		return MapStats{}, err
	}
	p.skip = 0
	var pol core.CheckpointPolicy
	var cw *ckptCommitter
	if cc := p.opts.Checkpoint; cc != nil {
		cw = newCkptCommitter(cc.Path, p.header(), p.opts.Engine.Metrics)
		pol.Subscribers = append(pol.Subscribers, cw.subscriber(cc))
		pol.StopRequested = cc.StopRequested
	}
	if p.inc != nil {
		pol.Subscribers = append(pol.Subscribers, p.inc.subscriber(p.consumed))
	}
	var st MapStats
	var err error
	if p.opts.Cluster.Nodes > 1 {
		st, err = p.mapCluster(src, &pol)
	} else {
		st, err = p.eng.MapReadsFrom(src, p.acc, &pol)
	}
	if cw != nil {
		err = cw.finish(err) // the newest checkpoint must be durable before we return
	}
	if err == nil || errors.Is(err, ErrStopped) {
		// Every read counts as exactly one of mapped/unmapped, so their
		// sum is the number of reads consumed.
		p.cum.Add(st)
		p.consumed += st.Mapped + st.Unmapped
	}
	return st, err
}

// mapCluster is MapReadsFrom's mapping step on Options.Cluster.Nodes
// ranks, one rank harness for both splits. Rank 0 owns src and the
// barrier policy under either. Read-split: rank 0 is the pipeline's
// engine and accumulator; every other rank gets an engine (over rank
// 0's seed index) and an accumulator of its own for the call.
// Genome-split: every rank gets an engine over rank 0's seed index and
// writes its slice of the pipeline's accumulator.
func (p *Pipeline) mapCluster(src ReadSource, pol *core.CheckpointPolicy) (MapStats, error) {
	cc := p.opts.Cluster
	if reg := p.opts.Engine.Metrics; reg != nil && p.rankRegs == nil {
		p.rankRegs = rankRegistries(cc.Nodes, reg)
	}
	// Written by rank 0's node goroutine only; read after the run, which
	// waits every goroutine out. ErrStopped propagates with the stats: the
	// final checkpoint is on disk and the caller decides whether to call
	// on partial state.
	var st MapStats
	snaps, dead, err := core.RunRanks(cc.Nodes, cc.runConfig(), p.rankRegs, func(c *cluster.Comm) error {
		if c.Rank() == 0 && cc.Split == ReadSplit {
			var err error
			st, err = core.RunReadSplit(c, p.eng, p.acc, src, pol)
			return err
		}
		// The simulated ranks share this process's memory: adopt rank 0's
		// immutable index rather than build N-1 copies after it.
		cfg := p.opts.Engine
		cfg.SeedIndex = p.eng.SeedIndex()
		if p.rankRegs != nil {
			cfg.Metrics = p.rankRegs[c.Rank()]
		}
		if cc.Split == GenomeSplit {
			rst, err := core.RunGenomeSplit(c, p.ref, src, p.acc, cfg, pol)
			if c.Rank() == 0 {
				st = rst
			}
			return err
		}
		eng, err := core.NewEngine(p.ref, cfg)
		if err != nil {
			return err
		}
		acc, err := genome.New(p.opts.Memory, p.ref.Len())
		if err != nil {
			return err
		}
		_, err = core.RunReadSplit(c, eng, acc, nil, nil)
		return err
	})
	if snaps != nil {
		p.rankSnaps = snaps[1:]
	}
	p.deadRanks = core.UnionRanks(p.deadRanks, dead, st.LostRanks)
	return st, err
}

// rankRegistries returns a cluster run's registries by rank: root for
// rank 0, a fresh one for every other rank.
func rankRegistries(nodes int, root *MetricsRegistry) []*MetricsRegistry {
	regs := []*MetricsRegistry{root}
	for len(regs) < nodes {
		regs = append(regs, obs.NewRegistry())
	}
	return regs
}

// MetricsReport merges what the pipeline has recorded: the engine's
// registry (Options.Metrics) as rank 0, the worker ranks' snapshots of
// the latest cluster mapping call, and the process-wide I/O metrics.
// Nil when the pipeline records no metrics.
func (p *Pipeline) MetricsReport() (*MetricsReport, error) {
	reg := p.opts.Engine.Metrics
	if reg == nil {
		return nil, nil
	}
	return newRunReport(append([]MetricsSnapshot{reg.Snapshot(0)}, p.rankSnaps...), p.deadRanks)
}

// newRunReport merges rank snapshots with the rank-independent activity
// (file I/O) of this process.
func newRunReport(snaps []MetricsSnapshot, dead []int) (*MetricsReport, error) {
	return obs.NewReport(append(snaps, obs.Default().Snapshot(obs.ProcessRank)), dead)
}

// Call runs the likelihood-ratio SNP caller over the accumulated state:
// the pipeline's caller re-sweeps the tiles written since its last
// sweep — every tile on the first Call, unless barrier sweeps already
// covered them — on Engine.Workers workers, then makes the single
// global significance decision. The result is bit-identical to a serial
// sweep of the whole accumulator at any worker count.
func (p *Pipeline) Call() ([]SNPCall, CallStats, error) {
	return p.caller.Finalize()
}

// WriteVCF writes calls as VCF 4.2.
func WriteVCF(w io.Writer, calls []SNPCall) error {
	return snp.WriteVCF(w, calls, "gnumap-snp")
}

// WriteVCF is the package-level WriteVCF (it uses nothing of p).
func (p *Pipeline) WriteVCF(w io.Writer, calls []SNPCall) error { return WriteVCF(w, calls) }

// WriteSAM maps the reads src yields again and writes each read's
// single best alignment as SAM (Viterbi path of the highest-posterior
// location). It is a second pass over the input — the accumulation
// pipeline marginalizes over alignments and retains no per-read paths —
// and it streams: src is pulled a mapping chunk at a time, so a caller
// replays its input by reopening it (a FASTQ file) rather than holding
// the read set.
func (p *Pipeline) WriteSAM(w io.Writer, src ReadSource) error {
	return p.eng.WriteAlignments(w, src, "gnumap-snp")
}

// WritePileup writes the per-position probability pileup as TSV for
// positions with at least minDepth accumulated mass.
func (p *Pipeline) WritePileup(w io.Writer, minDepth float64) error {
	return snp.WritePileup(w, p.ref, p.acc, 0, p.ref.Len(), minDepth)
}

// SaveState serializes the pipeline's accumulated per-position state
// so a long accumulation run can be checkpointed and resumed (or moved
// between machines). The bytes are a versioned, checksummed checkpoint
// (internal/ckpt) carrying the config fingerprint and cumulative
// mapping counters alongside the accumulator state.
func (p *Pipeline) SaveState(w io.Writer) error {
	data, err := p.acc.State()
	if err != nil {
		return err
	}
	cp := p.header()
	cp.State = data
	_, err = ckpt.WriteTo(w, &cp)
	return err
}

// header is the pipeline's fingerprint and cumulative accounting as a
// stateless checkpoint: what SaveState wraps around the state, and the
// base every periodic checkpoint of the next mapping call adds to.
func (p *Pipeline) header() ckpt.Checkpoint {
	return ckpt.Checkpoint{
		Fingerprint: p.fingerprint(), ReadsConsumed: p.consumed,
		Mapped: p.cum.Mapped, Unmapped: p.cum.Unmapped, Locations: p.cum.Locations,
	}
}

// LoadState restores state saved by SaveState into a pipeline built
// with the same reference and memory mode, replacing any accumulation
// done so far. Further MapReads calls continue from the restored state.
// The declared payload length is validated against the reference size
// before allocation; damaged, legacy, or mismatched blobs surface as
// typed errors (ErrNotCheckpoint, ErrCheckpointTruncated,
// ErrCheckpointChecksum, ErrCheckpointMismatch, ...).
func (p *Pipeline) LoadState(r io.Reader) error {
	cp, err := ckpt.ReadFrom(r, ckpt.MaxPayloadFor(p.ref.Len()))
	if err != nil {
		return fmt.Errorf("gnumap: load state: %w", err)
	}
	if err := p.fingerprint().Check(cp.Fingerprint); err != nil {
		return fmt.Errorf("gnumap: load state: %w", err)
	}
	return p.adopt(cp)
}

// adopt replaces the pipeline's accumulated state and cumulative
// accounting with a fingerprint-checked checkpoint's.
func (p *Pipeline) adopt(cp *ckpt.Checkpoint) error {
	if err := p.acc.LoadStateBytes(cp.State); err != nil {
		return err
	}
	p.cum = MapStats{Mapped: cp.Mapped, Unmapped: cp.Unmapped, Locations: cp.Locations}
	p.consumed = cp.ReadsConsumed
	return nil
}

// ReferenceLength returns the total reference length.
func (p *Pipeline) ReferenceLength() int { return p.ref.Len() }

// AccumulatorMemoryBytes reports the accumulator footprint (the
// paper's Table II quantity).
func (p *Pipeline) AccumulatorMemoryBytes() int64 { return p.acc.MemoryBytes() }

// IndexMemoryBytes reports the k-mer index footprint.
func (p *Pipeline) IndexMemoryBytes() int64 { return p.eng.IndexMemoryBytes() }

// SeedIndex is a candidate-generating seed index (the direct k<=14
// table or the frequency-capped large-seed index). Pass one via
// Options.Engine.SeedIndex to skip the per-run index build.
type SeedIndex = kmer.SeedIndex

// LargeSeedIndex is the SNAP-style frequency-capped index for seed
// lengths above kmer.MaxDirectK; it is the only variant that persists
// to disk.
type LargeSeedIndex = kmer.LargeIndex

// SeedIndexInfo describes a persisted seed-index file's header.
type SeedIndexInfo = kmer.IndexInfo

// BuildSeedIndex builds a seed index of length seedLen over the
// concatenated reference: the direct table for seedLen <= 14, the
// large-seed index above.
func BuildSeedIndex(reference []*Contig, seedLen int) (SeedIndex, error) {
	ref, err := genome.NewReference(reference)
	if err != nil {
		return nil, err
	}
	return kmer.Build(ref.Seq(), seedLen)
}

// SaveSeedIndex atomically persists a large-seed index for the given
// reference; the file records the reference SHA-256 and length so
// OpenSeedIndex can refuse an index built for different data.
func SaveSeedIndex(path string, ix *LargeSeedIndex, reference []*Contig) (int64, error) {
	ref, err := genome.NewReference(reference)
	if err != nil {
		return 0, err
	}
	return kmer.WriteIndexFile(path, ix, ref.Digest(), int64(ref.Len()))
}

// OpenSeedIndex memory-maps a persisted seed index, pinning it to the
// given reference (kmer.ErrRefMismatch when the file was built for
// other data). Close the index after the last pipeline using it.
func OpenSeedIndex(path string, reference []*Contig) (*LargeSeedIndex, error) {
	ref, err := genome.NewReference(reference)
	if err != nil {
		return nil, err
	}
	return kmer.LoadIndexFile(path, kmer.LoadOptions{
		RefDigest: ref.Digest(), RefLen: int64(ref.Len()),
	})
}

// ReadSeedIndexInfo reads a persisted index's validated header without
// loading its sections.
func ReadSeedIndexInfo(path string) (SeedIndexInfo, error) {
	return kmer.ReadIndexInfo(path)
}

// PHMMParams is the Pair-HMM parameter set (transitions and the match
// emission matrix). Set Options.Engine.PHMM to override the defaults,
// e.g. with parameters fitted by FitPHMM.
type PHMMParams = phmm.Params

// DefaultPHMMParams returns the paper-default parameter set.
func DefaultPHMMParams() PHMMParams { return phmm.DefaultParams() }

// FitPHMM estimates Pair-HMM parameters from the data itself: it maps
// the given reads, keeps confidently uniquely mapped ones as training
// alignments, and runs Baum-Welch (EM) from the default parameters.
// maxPairs bounds the training set (0 = all confident reads; a few
// hundred suffice). The fitted parameters plug into
// Options.Engine.PHMM for a subsequent mapping pipeline.
func FitPHMM(reference []*Contig, reads []*Read, maxPairs int) (PHMMParams, error) {
	ref, err := genome.NewReference(reference)
	if err != nil {
		return PHMMParams{}, err
	}
	eng, err := core.NewEngine(ref, core.Config{})
	if err != nil {
		return PHMMParams{}, err
	}
	pairs, err := eng.CollectTrainingPairs(reads, maxPairs, 0.99)
	if err != nil {
		return PHMMParams{}, err
	}
	res, err := phmm.Fit(pairs, phmm.DefaultParams(), phmm.TrainOptions{})
	if err != nil {
		return PHMMParams{}, err
	}
	return res.Params, nil
}

// ReadStats summarizes a read set (see internal/qc).
type ReadStats = qc.ReadStats

// CoverageStats summarizes accumulated mapping depth (see internal/qc).
type CoverageStats = qc.CoverageStats

// SummarizeReads computes QC statistics for a read set.
func SummarizeReads(reads []*Read) ReadStats {
	return qc.SummarizeReads(reads)
}

// CoverageStats summarizes the pipeline's accumulated depth after
// MapReads, timed as qc.coverage.seconds.
func (p *Pipeline) CoverageStats() CoverageStats {
	defer p.opts.Engine.Metrics.StartTimer("qc.coverage.seconds")()
	return qc.SummarizeCoverage(p.acc, 64)
}

// Allele is a called base channel (A, C, G, T, or gap).
type Allele = dna.Channel

// AlleleOf converts a truth SNP's base code to the channel type used
// by SNPCall, for comparing calls against planted alleles.
func AlleleOf(base dna.Code) Allele { return dna.Channel(base) }

// Evaluate scores calls against a planted truth set.
func Evaluate(calls []SNPCall, truth []TruthSNP) Metrics {
	return snp.Evaluate(calls, truth)
}

// LoadReference reads a FASTA reference file.
func LoadReference(path string) ([]*Contig, error) {
	return fasta.ReadFile(path)
}

// LoadReads reads a FASTQ file.
func LoadReads(path string, enc QualityEncoding) ([]*Read, error) {
	return fastq.ReadFile(path, enc)
}

// ReadSource yields reads one at a time until io.EOF — the streaming
// input of MapReadsFrom and RunClusterStreamReport.
type ReadSource = fastq.Source

// ReadStream is a streaming FASTQ file handle (a ReadSource plus
// Close; .gz transparent). Close publishes streamed volume to
// ProcessMetrics.
type ReadStream = fastq.File

// OpenReads opens a FASTQ file (or .gz) for streaming instead of
// materializing it. The caller must Close it.
func OpenReads(path string, enc QualityEncoding) (*ReadStream, error) {
	return fastq.Open(path, enc)
}

// SliceReadSource adapts an in-memory read slice to a ReadSource.
func SliceReadSource(reads []*Read) ReadSource {
	return fastq.SliceSource(reads)
}

// WriteReference writes contigs as FASTA.
func WriteReference(path string, contigs []*Contig) error {
	return fasta.WriteFile(path, contigs)
}

// WriteReads writes reads as FASTQ.
func WriteReads(path string, reads []*Read, enc QualityEncoding) error {
	return fastq.WriteFile(path, reads, enc)
}

// SimConfig configures SimulateDataset.
type SimConfig struct {
	// GenomeLength is the reference length (required).
	GenomeLength int
	// GC is the target GC content (default 0.41).
	GC float64
	// TandemRepeatFraction / DispersedRepeatFraction plant repeat
	// structure (default none).
	TandemRepeatFraction    float64
	DispersedRepeatFraction float64
	// SNPCount plants this many evenly spaced SNPs (required).
	SNPCount int
	// HetFraction makes this share of SNPs heterozygous; non-zero
	// implies a diploid individual.
	HetFraction float64
	// ReadLength (default 62, the paper's) and Coverage (default 12)
	// control sequencing.
	ReadLength int
	Coverage   float64
	// ErrStart/ErrEnd set the Illumina-like error ramp (defaults
	// 0.002 → 0.02).
	ErrStart, ErrEnd float64
	// Seed drives all randomness.
	Seed int64
}

// Dataset is a complete simulated experiment.
type Dataset struct {
	// Reference is the unmutated reference the mapper sees.
	Reference []*Contig
	// Truth is the planted SNP catalog (positions are global, which
	// for the single simulated contig equals contig-relative).
	Truth []TruthSNP
	// Reads are sequenced from the mutated individual.
	Reads []*Read
}

// SimulateDataset builds a reference, plants SNPs, and sequences reads
// from the mutated individual — the reproduction's stand-in for the
// paper's hg19-chrX + dbSNP + MetaSim setup.
func SimulateDataset(cfg SimConfig) (*Dataset, error) {
	reference, err := SimulateGenome(cfg)
	if err != nil {
		return nil, err
	}
	cat, err := simulate.Catalog(reference[0].Seq, simulate.CatalogConfig{
		Count:       cfg.SNPCount,
		HetFraction: cfg.HetFraction,
		Seed:        cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	reads, err := simulateReads(reference[0].Seq, cat, cfg.HetFraction > 0, cfg)
	if err != nil {
		return nil, err
	}
	return &Dataset{Reference: reference, Truth: cat, Reads: reads}, nil
}

// BaselineConfig tunes the comparator pipelines (see
// internal/baseline.Config; zero value = MAQ-flavoured defaults).
type BaselineConfig = baseline.Config

// BaselineResult is the comparator outcome.
type BaselineResult = baseline.Result

// The baseline consensus models.
const (
	MAQConsensus  = baseline.MAQConsensus
	SoapConsensus = baseline.SoapConsensus
)

// RunBaseline maps reads and calls SNPs with the comparator pipeline
// (MAQ-like by default; set Consensus to SoapConsensus for the Bayesian
// genotype caller). This is the paper's Table I comparison system,
// exposed so downstream users can reproduce the contrast.
func RunBaseline(reference []*Contig, reads []*Read, cfg BaselineConfig) (*BaselineResult, error) {
	ref, err := genome.NewReference(reference)
	if err != nil {
		return nil, err
	}
	return baseline.Run(ref, reads, cfg)
}

// SimulateGenome generates just a reference (no SNPs, no reads) for
// hand-constructed scenarios — e.g. planting an exact duplication
// before sequencing. Only GenomeLength, GC, repeat fractions, and Seed
// of the config are used.
func SimulateGenome(cfg SimConfig) ([]*Contig, error) {
	g, err := simulate.Genome(simulate.GenomeConfig{
		Length:                  cfg.GenomeLength,
		GC:                      cfg.GC,
		TandemRepeatFraction:    cfg.TandemRepeatFraction,
		DispersedRepeatFraction: cfg.DispersedRepeatFraction,
		Seed:                    cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return []*Contig{{Name: "sim", Seq: g}}, nil
}

// PlantSNPs builds a truth catalog at explicit positions of the
// reference's first contig, with transition-biased alternate alleles.
func PlantSNPs(reference []*Contig, positions []int, seed int64) ([]TruthSNP, error) {
	if len(reference) == 0 {
		return nil, fmt.Errorf("gnumap: empty reference")
	}
	return simulate.CatalogAt(reference[0].Seq, positions, simulate.CatalogConfig{Seed: seed})
}

// SimulateReadsFrom sequences an individual carrying the given truth
// SNPs on the reference's first contig, using the read parameters of
// cfg (ReadLength, Coverage, ErrStart/ErrEnd, Seed); the individual is
// diploid iff some truth SNP is heterozygous.
func SimulateReadsFrom(reference []*Contig, truth []TruthSNP, cfg SimConfig) ([]*Read, error) {
	if len(reference) == 0 {
		return nil, fmt.Errorf("gnumap: empty reference")
	}
	diploid := slices.ContainsFunc(truth, func(s TruthSNP) bool { return s.Het })
	return simulateReads(reference[0].Seq, truth, diploid, cfg)
}

// simulateReads sequences seq carrying truth with cfg's read parameters:
// ReadLength (default 62, the paper's), Coverage (default 12), the
// ErrStart/ErrEnd ramp, and Seed+2 as the sequencer's seed.
func simulateReads(seq dna.Seq, truth []TruthSNP, diploid bool, cfg SimConfig) ([]*Read, error) {
	ind, err := simulate.Mutate(seq, truth, diploid)
	if err != nil {
		return nil, err
	}
	readLen := cfg.ReadLength
	if readLen == 0 {
		readLen = 62
	}
	coverage := cfg.Coverage
	if coverage == 0 {
		coverage = 12
	}
	return simulate.Reads(ind, simulate.ReadConfig{
		Length:   readLen,
		Coverage: coverage,
		ErrStart: cfg.ErrStart,
		ErrEnd:   cfg.ErrEnd,
		Seed:     cfg.Seed + 2,
	})
}

// Transport selects the simulated-cluster transport.
type Transport = cluster.TransportKind

// The cluster transports.
const (
	Channels = cluster.Channels
	TCP      = cluster.TCP
)

// SplitMode selects the distributed parallelization strategy.
type SplitMode int

// The paper's two MPI modes (§VI Step 1).
const (
	// ReadSplit replicates the genome on every node and partitions the
	// reads ("shared memory" series of Figure 4).
	ReadSplit SplitMode = iota
	// GenomeSplit partitions the genome and shows every node all reads
	// ("spread memory" series of Figure 4).
	GenomeSplit
)

// String names the split mode.
func (m SplitMode) String() string {
	switch m {
	case ReadSplit:
		return "read-split"
	case GenomeSplit:
		return "genome-split"
	default:
		return fmt.Sprintf("SplitMode(%d)", int(m))
	}
}

// runConfig is the cluster runtime's view of the configuration.
func (cc ClusterConfig) runConfig() cluster.RunConfig {
	return cluster.RunConfig{Kind: cc.Transport, OpTimeout: cc.OpTimeout, Heartbeat: cc.OpTimeout / 10, Fault: cc.Fault}
}

// RunClusterStreamReport maps src and calls SNPs on a simulated cluster
// of the given size, returning the calls, the global mapping statistics
// and the run's merged metrics report: the cluster placement spelled as
// parameters (they override opts.Cluster.Nodes/Transport/Split), and a
// fresh registry when opts.Metrics is nil. It is one Pipeline run —
// NewPipeline, MapReadsFrom, Call, MetricsReport — at either split.
func RunClusterStreamReport(nodes int, transport Transport, mode SplitMode,
	reference []*Contig, src ReadSource, opts Options) ([]SNPCall, MapStats, *MetricsReport, error) {

	if nodes < 1 {
		return nil, MapStats{}, nil, fmt.Errorf("gnumap: cluster of %d nodes", nodes)
	}
	opts.Cluster.Nodes, opts.Cluster.Transport, opts.Cluster.Split = nodes, transport, mode
	if opts.Metrics == nil {
		opts.Metrics = NewMetricsRegistry()
	}
	p, err := NewPipeline(reference, opts)
	if err != nil {
		return nil, MapStats{}, nil, err
	}
	if _, err := p.MapReadsFrom(src); err != nil {
		// ErrStopped included: the final checkpoint is on disk, and the
		// caller relaunches with Resume rather than call on partial state.
		return nil, MapStats{}, nil, err
	}
	calls, _, err := p.Call()
	if err != nil {
		return nil, MapStats{}, nil, err
	}
	report, err := p.MetricsReport()
	if err != nil {
		return nil, MapStats{}, nil, err
	}
	// Cumulative, so a resumed job reports the whole job's totals.
	return calls, p.CumulativeStats(), report, nil
}
