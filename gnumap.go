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
	"encoding/gob"
	"errors"
	"fmt"
	"io"
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

func init() {
	// Candidate batches travel rank→rank-0 inside a collective when a
	// genome-split run applies global FDR.
	gob.Register([]snp.Candidate{})
}

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

// DefaultPhmmBatch is the default lane width of the batched wavefront
// Pair-HMM kernel. Set via EngineConfig.PhmmBatch (0 selects this
// default; 1 or negative forces the scalar kernel).
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
	// counters (mapping, Pair-HMM, calling). On a cluster it is rank 0's
	// registry and the other ranks get one each;
	// Pipeline.MetricsReport merges them.
	Metrics *MetricsRegistry
	// Checkpoint, when non-nil, makes Pipeline.MapReadsFrom write durable
	// checkpoints (and honor Resume/StopRequested), in one process or
	// read-split across ranks alike.
	Checkpoint *CheckpointConfig
	// Incremental, when non-nil, overlaps SNP calling with a Pipeline's
	// mapping: the pipeline's caller also sweeps written genome tiles at
	// quiesce barriers (the same barriers Checkpoint uses, each on its
	// own cadence), so Pipeline.Call re-sweeps only what the tail wrote.
	//
	// Not every feature composes with every placement; CheckModes says
	// which do not, and why.
	Incremental *IncrementalCallConfig
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

// ValidateMetricsJSON checks that data parses as a serialized
// MetricsReport with internally consistent merged totals.
func ValidateMetricsJSON(data []byte) error { return obs.ValidateReportJSON(data) }

// ClusterConfig is where a run executes — its placement (Nodes,
// Transport, Split: the parameters RunClusterStream takes positionally)
// — and the cluster's fault model: operation deadlines, heartbeat
// failure detection, and optional deterministic fault injection.
type ClusterConfig struct {
	// Nodes is the simulated cluster size. Above 1, a Pipeline's mapping
	// calls run read-split on that many ranks (rank 0 is the pipeline's
	// own engine and accumulator); 0 and 1 map in this process.
	Nodes int
	// Transport connects the nodes (default Channels).
	Transport Transport
	// Split is the paper's parallelization strategy (default ReadSplit).
	// A Pipeline holds the whole genome, so it runs ReadSplit only;
	// GenomeSplit goes through RunClusterStream.
	Split SplitMode
	// OpTimeout bounds every cluster Send/Recv/collective; in read-split
	// mode rank 0 then also keeps a ledger of dealt batches and re-deals
	// a lost worker's share (0 = off).
	OpTimeout time.Duration
	// Heartbeat enables the failure detector at this period (0 = off).
	Heartbeat time.Duration
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
	// rankRegs are the worker ranks' registries of a cluster pipeline
	// with metrics on (index 0 unused: rank 0 records into the engine's),
	// rankSnaps what the latest mapping call gathered from them, and
	// deadRanks the ranks that were lost or never reported.
	rankRegs  []*MetricsRegistry
	rankSnaps []MetricsSnapshot
	deadRanks []int
}

// NewPipeline indexes the reference and allocates the accumulator. With
// Options.Checkpoint.Resume it also adopts the checkpoint file's state
// when one exists.
func NewPipeline(reference []*Contig, opts Options) (*Pipeline, error) {
	if err := CheckModes(opts); err != nil {
		return nil, err
	}
	if opts.Cluster.Nodes > 1 && opts.Cluster.Split != ReadSplit {
		return nil, fmt.Errorf("%w: a Pipeline holds the whole genome and runs read-split; %v runs through RunClusterStream", ErrModeUnsupported, opts.Cluster.Split)
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
	if p.caller, err = snp.NewIncrementalCaller(ref, acc, 0, opts.Caller); err != nil {
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
// mapping pipeline: resident memory is capped at
// (Engine.Queue + Engine.Workers) · Engine.Batch reads regardless of
// the input size. It may be called repeatedly; the returned stats cover
// this call (CumulativeStats covers the pipeline's life). With
// Options.Cluster.Nodes > 1 the same step runs read-split on that many
// ranks — this process deals the source and folds the ranks' state into
// the pipeline's accumulator — and everything after it (Call,
// WritePileup, WriteSAM, CoverageStats, SaveState) is unchanged.
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
		st, err = p.mapReadSplit(src, &pol)
	} else {
		st, err = p.eng.MapReadsFrom(src, p.acc, 0, &pol)
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

// mapReadSplit is MapReadsFrom's mapping step on Options.Cluster.Nodes
// ranks: rank 0 is the pipeline's engine and accumulator and owns src
// and the barrier policy; every other rank gets an engine (over rank 0's
// seed index) and an accumulator of its own for the call.
func (p *Pipeline) mapReadSplit(src ReadSource, pol *core.CheckpointPolicy) (MapStats, error) {
	cc := p.opts.Cluster
	reg := p.opts.Engine.Metrics
	if reg != nil && p.rankRegs == nil {
		p.rankRegs = make([]*MetricsRegistry, cc.Nodes)
		for r := 1; r < cc.Nodes; r++ {
			p.rankRegs[r] = obs.NewRegistry()
		}
	}
	// Written by rank 0's node goroutine only; read after the run, which
	// waits every goroutine out.
	var st MapStats
	err := cluster.RunWithConfig(cc.Nodes, cc.runConfig(), func(c *cluster.Comm) error {
		eng, acc, rreg := p.eng, p.acc, reg // this rank's
		if c.Rank() != 0 {
			// The simulated ranks share this process's memory: adopt rank
			// 0's immutable index rather than build N-1 copies after it.
			cfg := p.opts.Engine
			cfg.SeedIndex = p.eng.SeedIndex()
			if reg != nil {
				rreg = p.rankRegs[c.Rank()]
				cfg.Metrics = rreg
			}
			var err error
			if eng, err = core.NewEngine(p.ref, cfg); err != nil {
				return err
			}
			if acc, err = genome.New(p.opts.Memory, p.ref.Len()); err != nil {
				return err
			}
		}
		c.SetMetrics(rreg)
		got, err := core.RunReadSplit(c, eng, acc, src, pol)
		if c.Rank() == 0 {
			st = got
		}
		if err != nil || rreg == nil {
			// ErrStopped propagates: the final checkpoint is on disk and
			// the caller decides whether to call on partial state.
			return err
		}
		snaps, dead, err := core.GatherMetrics(c, rreg.Snapshot(c.Rank()))
		if c.Rank() == 0 && err == nil {
			p.rankSnaps, p.deadRanks = snaps[1:], core.UnionRanks(p.deadRanks, dead)
		}
		return err
	})
	p.deadRanks = core.UnionRanks(p.deadRanks, st.LostRanks)
	return st, err
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
// covered them — on Caller.CallWorkers workers, then makes the single
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

// WriteSAM maps the reads again and writes each read's single best
// alignment as SAM (Viterbi path of the highest-posterior location).
// Note this is a separate pass: the accumulation pipeline marginalizes
// over alignments and does not retain per-read paths.
func (p *Pipeline) WriteSAM(w io.Writer, reads []*Read) error {
	return p.eng.WriteAlignments(w, reads, "gnumap-snp")
}

// WritePileup writes the per-position probability pileup as TSV for
// positions with at least minDepth accumulated mass.
func (p *Pipeline) WritePileup(w io.Writer, minDepth float64) error {
	return snp.WritePileup(w, p.ref, p.acc, 0, 0, p.ref.Len(), minDepth)
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
// MapReads.
func (p *Pipeline) CoverageStats() CoverageStats {
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
// input of MapReadsFrom and RunClusterStream.
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
	cat, err := simulate.Catalog(g, simulate.CatalogConfig{
		Count:       cfg.SNPCount,
		HetFraction: cfg.HetFraction,
		Seed:        cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	ind, err := simulate.Mutate(g, cat, cfg.HetFraction > 0)
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
	reads, err := simulate.Reads(ind, simulate.ReadConfig{
		Length:   readLen,
		Coverage: coverage,
		ErrStart: cfg.ErrStart,
		ErrEnd:   cfg.ErrEnd,
		Seed:     cfg.Seed + 2,
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{
		Reference: []*Contig{{Name: "sim", Seq: g}},
		Truth:     cat,
		Reads:     reads,
	}, nil
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
// cfg (ReadLength, Coverage, ErrStart/ErrEnd, HetFraction>0 implies a
// diploid individual, Seed).
func SimulateReadsFrom(reference []*Contig, truth []TruthSNP, cfg SimConfig) ([]*Read, error) {
	if len(reference) == 0 {
		return nil, fmt.Errorf("gnumap: empty reference")
	}
	diploid := false
	for _, s := range truth {
		if s.Het {
			diploid = true
		}
	}
	ind, err := simulate.Mutate(reference[0].Seq, truth, diploid)
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
	return cluster.RunConfig{Kind: cc.Transport, OpTimeout: cc.OpTimeout, Heartbeat: cc.Heartbeat, Fault: cc.Fault}
}

// ErrModeUnsupported is wrapped by every refusal of a feature on a
// placement that cannot serve it (CheckModes).
var ErrModeUnsupported = errors.New("gnumap: unsupported mode combination")

// CheckModes reports whether what a run asks for composes with where it
// runs (opts.Cluster), naming both sides by their gnumap-snp flags when
// it does not. outputs lists the side outputs the caller means to write
// from the accumulated genome ("-sam", "-pileup"): they are Pipeline
// methods rather than options, but need the same whole-genome state.
// The four pairs refused, all wrapping ErrModeUnsupported, are
// Checkpoint, Incremental and both side outputs × GenomeSplit:
// genome-split keeps no whole-genome state on any rank, so there is
// nothing to checkpoint, sweep incrementally or write a pileup from.
// Everything composes with ReadSplit, whose rank 0 holds the whole
// genome's state — write-set included — after every round.
func CheckModes(opts Options, outputs ...string) error {
	cc := opts.Cluster
	if cc.Nodes <= 1 {
		return nil
	}
	switch cc.Split {
	case ReadSplit:
		return nil
	case GenomeSplit:
	default:
		return fmt.Errorf("gnumap: unknown split mode %d", int(cc.Split))
	}
	var features []string
	if opts.Incremental != nil {
		features = append(features, "-incremental-every")
	}
	if opts.Checkpoint != nil {
		features = append(features, "-checkpoint")
	}
	features = append(features, outputs...)
	if len(features) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %s with -nodes %d -split genome: genome-split keeps no whole-genome state on any rank", ErrModeUnsupported, features[0], cc.Nodes)
}

// RunClusterStream maps src and calls SNPs on a simulated cluster of the
// given size, returning the calls and global mapping statistics: the
// cluster placement spelled as parameters (they override
// opts.Cluster.Nodes/Transport/Split). In ReadSplit mode it is a
// Pipeline run — rank 0 owns the source and deals fixed-size batches
// round-robin to the ranks under a bounded credit window, so
// cluster-wide resident reads stay capped by
// Engine.{Batch,Queue,Workers}; with Cluster.OpTimeout set it also
// retains what it dealt since the last checkpoint round, to re-deal a
// lost rank's share; rank 0 calls SNPs. In GenomeSplit mode rank 0
// broadcasts the source a batch at a time, every rank sweeps its genome
// slice for LRT candidates, and rank 0 gathers them and makes one
// significance decision over the global candidate list (under FDR
// control the Benjamini-Hochberg thresholds depend on the full ranked
// p-value list, so a per-shard pass would change the call set with the
// node count). Either way the result is equivalent to a single-process
// run.
func RunClusterStream(nodes int, transport Transport, mode SplitMode,
	reference []*Contig, src ReadSource, opts Options) ([]SNPCall, MapStats, error) {

	calls, stats, _, err := runCluster(nodes, transport, mode, reference, src, opts, false)
	return calls, stats, err
}

// RunClusterStreamReport is RunClusterStream with per-rank
// observability: every rank records its mapping, calling, and
// communication activity into its own registry; at the end the
// snapshots are gathered at rank 0 (tolerating dead ranks on
// fault-tolerant runs) and merged into a MetricsReport alongside the
// process-wide I/O metrics.
func RunClusterStreamReport(nodes int, transport Transport, mode SplitMode,
	reference []*Contig, src ReadSource, opts Options) ([]SNPCall, MapStats, *MetricsReport, error) {

	return runCluster(nodes, transport, mode, reference, src, opts, true)
}

// runCluster is both spellings: a Pipeline run for read-split, the
// genome-split runner otherwise.
func runCluster(nodes int, transport Transport, mode SplitMode,
	reference []*Contig, src ReadSource, opts Options, withMetrics bool) ([]SNPCall, MapStats, *MetricsReport, error) {

	if nodes < 1 {
		return nil, MapStats{}, nil, fmt.Errorf("gnumap: cluster of %d nodes", nodes)
	}
	opts.Cluster.Nodes, opts.Cluster.Transport, opts.Cluster.Split = nodes, transport, mode
	if mode == GenomeSplit {
		return runGenomeSplit(reference, src, opts, withMetrics)
	}
	if withMetrics && opts.Metrics == nil {
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
	var report *MetricsReport
	if withMetrics {
		if report, err = p.MetricsReport(); err != nil {
			return nil, MapStats{}, nil, err
		}
	}
	// Cumulative, so a resumed job reports the whole job's totals.
	return calls, p.CumulativeStats(), report, nil
}

// runGenomeSplit executes a genome-split cluster run over src, which
// rank 0 owns: every rank maps every read against its genome slice and
// sweeps the slice for LRT candidates, which rank 0 gathers and
// finalizes.
func runGenomeSplit(reference []*Contig, src ReadSource, opts Options, withMetrics bool) ([]SNPCall, MapStats, *MetricsReport, error) {
	if err := CheckModes(opts); err != nil {
		return nil, MapStats{}, nil, err
	}
	ref, err := genome.NewReference(reference)
	if err != nil {
		return nil, MapStats{}, nil, err
	}
	// Written only by rank 0's node goroutine; read after RunWithConfig
	// returns (which waits all goroutines out).
	var calls []SNPCall
	var stats MapStats
	var snaps []MetricsSnapshot
	var dead []int
	err = cluster.RunWithConfig(opts.Cluster.Nodes, opts.Cluster.runConfig(), func(c *cluster.Comm) error {
		engCfg, caller := opts.Engine, opts.Caller
		var reg *MetricsRegistry
		if withMetrics {
			reg = obs.NewRegistry()
			engCfg.Metrics, caller.Metrics = reg, reg
			c.SetMetrics(reg)
		}
		acc, lo, _, st, err := core.RunGenomeSplit(c, ref, src, opts.Memory, engCfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			stats = st
		}
		// The significance decision is made once, over every slice's
		// candidates: the Benjamini-Hochberg threshold for each hypothesis
		// depends on the rank of its p-value in the FULL sorted list (the
		// fixed cutoff, het demotion and Alpha < 0 are per candidate, so
		// they agree either way).
		ic, err := snp.NewIncrementalCaller(ref, acc, lo, caller)
		if err != nil {
			return err
		}
		cands, _, err := ic.Candidates()
		if err != nil {
			return err
		}
		all, err := c.Gather(0, cands)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			var merged []snp.Candidate
			for r, v := range all {
				part, ok := v.([]snp.Candidate)
				if !ok {
					return fmt.Errorf("gnumap: rank %d sent candidate payload %T", r, v)
				}
				merged = append(merged, part...)
			}
			if calls, _, err = snp.FinalizeCalls(merged, caller); err != nil {
				return err
			}
		}
		if reg == nil {
			return nil
		}
		got, gotDead, err := core.GatherMetrics(c, reg.Snapshot(c.Rank()))
		if c.Rank() == 0 {
			snaps, dead = got, gotDead
		}
		return err
	})
	if err != nil {
		return nil, MapStats{}, nil, err
	}
	var report *MetricsReport
	if withMetrics {
		if report, err = newRunReport(snaps, dead); err != nil {
			return nil, MapStats{}, nil, err
		}
	}
	return calls, stats, report, nil
}
