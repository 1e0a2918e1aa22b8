// Package core is the GNUMAP-SNP mapping engine: the paper's three-step
// pipeline (k-mer seeding → probabilistic Pair-HMM marginal alignment →
// online accumulation of per-position nucleotide probabilities), with
// the shared-memory worker-pool parallelization, and — in cluster.go —
// the two MPI-style distributed modes (read-split and genome-split).
//
// The engine's distinguishing behaviours, which the ablation benches
// isolate, are:
//
//  1. quality-weighted PHMM emissions (reads are PWMs, not strings);
//  2. marginal (forward-backward) accumulation over all alignments of a
//     read at a location, rather than one best path;
//  3. multi-location posterior weighting: a read mapping plausibly to
//     several locations contributes to all of them, weighted by each
//     location's share of the total alignment likelihood.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gnumap/internal/dna"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/kmer"
	"gnumap/internal/obs"
	"gnumap/internal/phmm"
	"gnumap/internal/pwm"
)

// Config tunes the engine. Zero values select paper defaults.
type Config struct {
	// PHMM holds the Pair-HMM parameters (default phmm.DefaultParams).
	PHMM phmm.Params
	// AlignMode selects Global (paper-faithful windows) or SemiGlobal
	// (padded windows, the default).
	AlignMode phmm.Mode
	// K is the seed k-mer length (default kmer.DefaultK = 10). Values
	// above kmer.MaxDirectK select the frequency-capped large-seed
	// index (SNAP-style) instead of the direct offset table.
	K int
	// SeedIndex, when non-nil, is a prebuilt (or file-loaded) seed
	// index over the whole reference, adopted instead of building one at
	// engine construction; its K() and SeqLen() must match the config
	// and reference. Every rank of a cluster run seeds against one such
	// index, under either split.
	SeedIndex kmer.SeedIndex
	// Pad is the extra genome context on each side of a candidate
	// window in SemiGlobal mode (default 8).
	Pad int
	// Band is the diagonal band width (in DP cells) of the banded
	// Pair-HMM kernel. 0 ("auto") picks 2*Pad+2 in SemiGlobal mode —
	// the seed diagonal is known to within the window padding plus the
	// candidate-merge slack — and the full kernel in Global mode.
	// Negative forces the exact full-rectangle kernel.
	Band int
	// Workers is the shared-memory worker count (default GOMAXPROCS).
	Workers int
	// Batch is the number of reads per unit of worker-pool work: the
	// size of the batches the dealer (MapReadsFrom, RunReadSplit's rank
	// 0) fills and deals, and a pipe's workers claim (default 64). A worker packs Pair-HMM lanes across the reads
	// of its batch (1 = no packing); results are identical at any value.
	Batch int
	// Queue bounds a pipe's work queue, in batches (default 4), and a
	// read-split rank's credit window. Feeding blocks (backpressure)
	// once Queue batches wait and every worker holds one, so a rank
	// never holds more than (Queue + Workers) · Batch reads fed and
	// unfinished regardless of the input size.
	Queue int
	// Attribution selects how posterior mass maps to base channels
	// (default phmm.ByCall, the paper's formulation).
	Attribution phmm.Attribution
	// MaxCandidates caps candidate locations per strand (default 8).
	MaxCandidates int
	// MinSeedVotes drops candidate diagonals with fewer seed hits
	// (default 2; 1 for very short reads).
	MinSeedVotes int
	// MinVoteFraction drops candidates whose seed votes are below this
	// fraction of the read's best candidate across both strands
	// (default 0.25). True multi-mapping locations retain near-equal
	// votes and survive; spurious diagonals with a couple of chance
	// seed hits are skipped before the expensive PHMM.
	MinVoteFraction float64
	// MaxBucket masks seed k-mers occurring more often than this in
	// the reference (default 1024).
	MaxBucket int
	// MinPosterior drops mapping locations carrying less than this
	// share of a read's total alignment likelihood (default 0.01).
	MinPosterior float64
	// MinLocLogLik rejects individual alignments whose per-base
	// log-likelihood is below this (default -2.0; random 62-bp
	// alignments score far lower, true mappings far higher). It is
	// the engine's "does this read map here at all" filter.
	MinLocLogLik float64
	// PhmmBatch caps the pairs of one phmm.AlignBatch call, the
	// mapper's only forward-backward kernel: the same-shape candidate
	// windows of a work batch's reads are aligned together, up to this
	// many at a time, in a sweep that is always phmm.MaxBatch lanes wide
	// (a narrower group is padded). A lane's result does not depend on
	// the group's size, so this decides speed only. 0 selects
	// DefaultPhmmBatch; any other value is clamped into
	// [1, phmm.MaxBatch]. The field stays only because the benchmark
	// module (bench/) sets and reads it.
	PhmmBatch int
	// ViterbiOnly switches accumulation to the single best path per
	// location (ablation of the marginal alignment).
	ViterbiOnly bool
	// IgnoreQualities treats every read as perfectly called (one-hot
	// PWM rows), disabling the paper's quality-weighted emission
	// p*(i,j) (ablation of the PWM extension).
	IgnoreQualities bool
	// BestHitOnly keeps only the highest-likelihood location per read
	// (ablation of multi-location posterior weighting).
	BestHitOnly bool
	// Metrics, when non-nil, receives the engine's stage timers and
	// counters: map.seed.seconds (per read: PWM build + candidate
	// lookup), map.align.seconds (per sweep of one bin of same-shape
	// windows), map.accum.seconds (per mapped read: accumulator updates),
	// map.read.seconds (per read: its batch's wall / reads), plus
	// map.candidates / map.alignments / map.mapped / map.unmapped /
	// map.locations, phmm.cells (DP cells computed) and the lane
	// occupancy of the batched kernel (phmm.batch.lanes.full / .partial:
	// alignments swept in full-width and narrower groups;
	// phmm.batch.bin16.alignments: alignments whose same-shape bin held
	// at least 16 windows, the share a 16-lane sweep could fill). Seed
	// selectivity is tracked by map.seed.hits (index positions voted),
	// map.seed.masked (read seeds dropped by MaxBucket), the
	// map.candidates.per.read histogram, and the index.bytes gauge; an
	// index the engine builds itself (not one passed in as SeedIndex)
	// records its build time as index.build.seconds. Nil
	// disables instrumentation; the hot path then pays only a pointer
	// check.
	Metrics *obs.Registry
}

// DefaultPhmmBatch is the default group size of the batched wavefront
// Pair-HMM kernel: every lane of its sweep.
const DefaultPhmmBatch = phmm.MaxBatch

func (c Config) withDefaults() Config {
	zero := phmm.Params{}
	if c.PHMM == zero {
		c.PHMM = phmm.DefaultParams()
	}
	if c.K == 0 {
		if c.SeedIndex != nil {
			c.K = c.SeedIndex.K()
		} else {
			c.K = kmer.DefaultK
		}
	}
	if c.Pad == 0 {
		c.Pad = 8
	}
	// The pipeline sizes its goroutines and channels from these three,
	// so a negative value (reachable from CLI flags) defaults too.
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.Queue <= 0 {
		c.Queue = 4
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 8
	}
	if c.MinSeedVotes == 0 {
		c.MinSeedVotes = 2
	}
	if c.MaxBucket == 0 {
		c.MaxBucket = 1024
	}
	if c.MinPosterior == 0 {
		c.MinPosterior = 0.01
	}
	if c.MinVoteFraction == 0 {
		c.MinVoteFraction = 0.25
	}
	if c.MinLocLogLik == 0 {
		c.MinLocLogLik = -2.0
	}
	if c.PhmmBatch == 0 {
		c.PhmmBatch = DefaultPhmmBatch
	}
	c.PhmmBatch = min(max(c.PhmmBatch, 1), phmm.MaxBatch)
	return c
}

// effectiveBand resolves the Band knob into the width passed to
// phmm.AlignBatch and the Viterbi ablation's ViterbiBanded (0 there
// means "full kernel"). Call only after
// withDefaults, since auto mode depends on Pad.
func (c Config) effectiveBand() int {
	switch {
	case c.Band > 0:
		return c.Band
	case c.Band < 0:
		return 0
	case c.AlignMode == phmm.SemiGlobal:
		return 2*c.Pad + 2
	default:
		// Global windows are exact-size and unpadded; an indel anywhere
		// shifts the tail off any narrow diagonal, so auto keeps the
		// full kernel.
		return 0
	}
}

// Resolved returns the configuration with every defaulted knob filled
// in — the effective values a run actually uses. Checkpoint
// fingerprints hash the resolved form so "zero value" and "explicit
// default" never spuriously mismatch.
func (c Config) Resolved() Config { return c.withDefaults() }

// EffectiveBand resolves the Band knob (including auto mode) into the
// concrete band width a run uses.
func (c Config) EffectiveBand() int { return c.withDefaults().effectiveBand() }

// Stats counts mapping outcomes.
type Stats struct {
	// Mapped and Unmapped count reads; Locations counts accepted
	// (read, location) pairs — Locations/Mapped > 1 indicates
	// multi-mapping reads contributing to several loci.
	Mapped, Unmapped, Locations int64
	// LostRanks lists cluster ranks lost during a fault-tolerant
	// read-split run; their batches were re-dealt to survivors, so the
	// counts above still cover every read. Empty on healthy runs.
	LostRanks []int
}

// Degraded reports whether the run lost (and recovered from) ranks.
func (s Stats) Degraded() bool { return len(s.LostRanks) > 0 }

// Add merges another Stats (across nodes, or across the mapping calls of
// one job). LostRanks is the union of both sides (deduped, sorted):
// dropping it here silently cleared Degraded() whenever per-node stats
// were folded together, hiding a degraded run from the caller.
func (s *Stats) Add(o Stats) {
	s.Mapped += o.Mapped
	s.Unmapped += o.Unmapped
	s.Locations += o.Locations
	s.LostRanks = UnionRanks(s.LostRanks, o.LostRanks)
}

// UnionRanks merges rank lists into a sorted, deduplicated union.
// Returns nil when every input is empty so healthy Stats stay
// comparable to their zero value.
func UnionRanks(lists ...[]int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, list := range lists {
		for _, r := range list {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	sort.Ints(out)
	return out
}

// engineMetrics pre-resolves the engine's metric handles once at
// construction so the mapping hot path never touches the registry's
// name map; every update is a single atomic op.
type engineMetrics struct {
	seedSec, alignSec, accumSec, readSec *obs.Histogram
	candidates, alignments, cells        *obs.Counter
	mapped, unmapped, locations          *obs.Counter
	seedHits, seedMasked                 *obs.Counter
	candPerRead                          *obs.Histogram
	// Alignments swept in full-width groups and in narrower ones, and
	// those whose same-shape bin held at least 16 windows.
	lanesFull, lanesPartial, bin16 *obs.Counter
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		seedSec:    reg.Timer("map.seed.seconds"),
		alignSec:   reg.Timer("map.align.seconds"),
		accumSec:   reg.Timer("map.accum.seconds"),
		readSec:    reg.Timer("map.read.seconds"),
		candidates: reg.Counter("map.candidates"),
		alignments: reg.Counter("map.alignments"),
		cells:      reg.Counter("phmm.cells"),
		mapped:     reg.Counter("map.mapped"),
		unmapped:   reg.Counter("map.unmapped"),
		locations:  reg.Counter("map.locations"),
		seedHits:   reg.Counter("map.seed.hits"),
		seedMasked: reg.Counter("map.seed.masked"),
		candPerRead: reg.Histogram(
			"map.candidates.per.read", obs.CountBuckets),
		lanesFull:    reg.Counter("phmm.batch.lanes.full"),
		lanesPartial: reg.Counter("phmm.batch.lanes.partial"),
		bin16:        reg.Counter("phmm.batch.bin16.alignments"),
	}
}

// Engine maps reads against one reference.
type Engine struct {
	cfg Config
	// band is the resolved PHMM band width (cfg.effectiveBand()).
	band int
	ref  *genome.Reference
	idx  kmer.SeedIndex
	// met is nil when Config.Metrics is nil — instrumentation off.
	met *engineMetrics
	// ownLo/ownHi restrict accepted candidate starts to [ownLo, ownHi):
	// a genome-split rank seeds against the whole-genome index and
	// aligns only the candidates that start in its slice, so every
	// location is aligned by exactly one rank.
	ownLo, ownHi int
	// testMapErr, when non-nil, is consulted before mapping each read.
	// Test-only: it lets the stop-latch and streaming error paths
	// inject deterministic per-read failures.
	testMapErr func(*fastq.Read) error
	// idle holds warm mappers between mapping calls.
	idleMu sync.Mutex
	idle   []*mapper
}

// NewEngine indexes the reference, or adopts Config.SeedIndex.
func NewEngine(ref *genome.Reference, cfg Config) (*Engine, error) {
	if ref == nil || ref.Len() == 0 {
		return nil, fmt.Errorf("core: empty reference")
	}
	cfg = cfg.withDefaults()
	if err := cfg.PHMM.Validate(); err != nil {
		return nil, err
	}
	idx := cfg.SeedIndex
	if idx != nil {
		if idx.K() != cfg.K {
			return nil, fmt.Errorf("core: seed index k=%d, config k=%d", idx.K(), cfg.K)
		}
		if idx.SeqLen() != ref.Len() {
			return nil, fmt.Errorf("core: seed index covers %d bases, reference has %d",
				idx.SeqLen(), ref.Len())
		}
	} else {
		stop := cfg.Metrics.StartTimer("index.build.seconds")
		built, err := kmer.Build(ref.Seq(), cfg.K)
		stop()
		if err != nil {
			return nil, err
		}
		idx = built
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Gauge("index.bytes").Set(float64(idx.MemoryBytes()))
	}
	return &Engine{
		cfg: cfg, band: cfg.effectiveBand(), met: newEngineMetrics(cfg.Metrics),
		ref: ref, idx: idx, ownLo: 0, ownHi: ref.Len(),
	}, nil
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// SeedIndex returns the engine's seed index (immutable, safe to share:
// pass it as another engine's Config.SeedIndex over the same reference).
func (e *Engine) SeedIndex() kmer.SeedIndex { return e.idx }

// IndexMemoryBytes reports the k-mer index footprint.
func (e *Engine) IndexMemoryBytes() int64 { return e.idx.MemoryBytes() }

// location is one accepted mapping of a read, len(contribs) wide.
type location struct {
	// windowStart is the global position of contribs[0].
	windowStart int
	logLik      float64
	contribs    []genome.Vec
	// minus marks a reverse-strand alignment; p is that strand's PWM, a
	// mapper slot rewritten when the next chunk of reads is seeded.
	minus bool
	p     *pwm.Matrix
}

// scoredCand pairs a candidate with its source strand (0 = forward,
// 1 = reverse complement).
type scoredCand struct {
	sc   int
	cand kmer.Candidate
}

// mapChunk is how many reads mapBatch packs Pair-HMM lanes across at a
// time. Per-chunk scratch (PWM slots, pending list) is sized by it, so a
// larger Config.Batch costs a worker no extra memory.
const mapChunk = 64

// pendingAlign is one candidate window of one read of the chunk; the
// sweep adds loc's logLik and contribs on acceptance. Keeping the outcome
// on the entry lets mapBatch sweep lanes in whatever grouping is
// efficient and still emit each read's locations in candidate order —
// the float sequence a read-at-a-time, one-lane mapper accumulates.
type pendingAlign struct {
	read           int // index of the read in its chunk
	window         dna.Seq
	diag           int
	done, accepted bool
	loc            location
}

// mapper holds per-worker scratch state, reused across mapBatch calls
// and — through the engine's idle list — across mapping calls: the warm
// hot path does not allocate. Nothing batch-sized exists before a chunk.
type mapper struct {
	e *Engine
	// batch runs every marginal alignment; aligner runs only single best
	// paths (the ViterbiOnly ablation and SAM export).
	batch   *phmm.BatchAligner
	aligner *phmm.Aligner
	// met aliases e.met; lastCells tracks the cumulative DP cell count
	// across both aligners so each chunk publishes only its delta.
	met       *engineMetrics
	lastCells int64
	totals    []float64
	wbuf      []float64
	// Per-chunk: a forward and a reverse-complement PWM per read slot
	// (lanes of one sweep come from different reads, so they outlive
	// phase 1) and every read's pending windows, in read order.
	pwms    []pwm.Matrix
	pending []pendingAlign
	candBuf kmer.CandidateBuf
	scored  []scoredCand
	// One bin's members and the lane input views of one sweep.
	bidx []int
	bxs  []*pwm.Matrix
	bys  []dna.Seq
	// locs and arena back the locations handed to emit and their
	// contribs; both restart with every chunk (every call, under keep).
	locs     []location
	arena    []genome.Vec
	arenaOff int
}

// grabContribs carves a zeroed n-element chunk from the arena. Chunks
// stay referenced by pending entries and locations until the arena
// restarts, so growth swaps in a fresh backing array instead of copying:
// live chunks keep pointing into the old one. After a few batches the
// arena reaches the high-water mark and grabs stop allocating.
func (m *mapper) grabContribs(n int) []genome.Vec {
	if m.arenaOff+n > len(m.arena) {
		sz := 2 * (m.arenaOff + n)
		if sz < 1024 {
			sz = 1024
		}
		m.arena = make([]genome.Vec, sz)
		m.arenaOff = 0
	}
	c := m.arena[m.arenaOff : m.arenaOff+n : m.arenaOff+n]
	m.arenaOff += n
	for j := range c {
		c[j] = genome.Vec{}
	}
	return c
}

// getMapper hands out an idle mapper, or builds one: a mapper's warm
// scratch (DP planes, PWM slots, vote table) and its cell bookkeeping
// outlive the mapping call that grew them.
func (e *Engine) getMapper() (*mapper, error) {
	e.idleMu.Lock()
	if n := len(e.idle); n > 0 {
		m := e.idle[n-1]
		e.idle = e.idle[:n-1]
		e.idleMu.Unlock()
		return m, nil
	}
	e.idleMu.Unlock()
	al, err := phmm.NewAligner(e.cfg.PHMM, e.cfg.AlignMode)
	if err != nil {
		return nil, err
	}
	ba, err := phmm.NewBatchAligner(e.cfg.PHMM, e.cfg.AlignMode)
	if err != nil {
		return nil, err
	}
	return &mapper{e: e, batch: ba, aligner: al, met: e.met}, nil
}

// putMapper returns a mapper for the next call to reuse.
func (e *Engine) putMapper(m *mapper) {
	e.idleMu.Lock()
	e.idle = append(e.idle, m)
	e.idleMu.Unlock()
}

// mapBatch maps reads a chunk at a time and calls emit once per read, in
// source order, with the read's index in reads and its accepted
// locations carrying raw log-likelihoods (posterior weighting is emit's,
// so genome-split can normalize globally). Per chunk: (1) seedRead
// queues every read's candidate windows; (2) alignPending sweeps them,
// lanes packed across reads; (3) each read's accepted locations are
// emitted in candidate order. An alignment does not depend on the lanes
// beside it, so emit sees — and accumulates, in order — what a
// read-at-a-time, one-lane mapper produces, bit for bit (DESIGN.md §12).
// The locations alias mapper scratch: they die when the next chunk
// starts or, with keep set (scratch then grows with len(reads)), at the
// next mapBatch call.
func (m *mapper) mapBatch(reads []*fastq.Read, keep bool, emit func(i int, locs []location) error) error {
	for base := 0; base < len(reads); base += mapChunk {
		chunk := reads[base:min(base+mapChunk, len(reads))]
		if m.pwms == nil {
			m.pwms = make([]pwm.Matrix, 2*mapChunk)
		}
		if base == 0 || !keep {
			m.locs, m.arenaOff = m.locs[:0], 0
		}
		var t0 time.Time
		if m.met != nil {
			t0 = time.Now()
		}
		m.pending = m.pending[:0]
		for i, rd := range chunk {
			if hook := m.e.testMapErr; hook != nil {
				if err := hook(rd); err != nil {
					return err
				}
			}
			m.seedRead(i, rd)
		}
		if err := m.alignPending(); err != nil {
			return err
		}
		k := 0
		for i := range chunk {
			first := len(m.locs)
			for ; k < len(m.pending) && m.pending[k].read == i; k++ {
				if m.pending[k].accepted {
					m.locs = append(m.locs, m.pending[k].loc)
				}
			}
			if err := emit(base+i, m.locs[first:len(m.locs):len(m.locs)]); err != nil {
				return err
			}
		}
		if m.met != nil {
			perRead := time.Since(t0) / time.Duration(len(chunk))
			for range chunk {
				m.met.readSec.ObserveDuration(perRead)
			}
		}
	}
	return nil
}

// fillPWM builds rd's forward PWM in p; a malformed read is an error.
func (e *Engine) fillPWM(p *pwm.Matrix, rd *fastq.Read) error {
	if !e.cfg.IgnoreQualities {
		return p.FillFromRead(rd) // validates the read
	}
	if err := rd.Validate(); err != nil {
		return err
	}
	return p.FillSeqUniformError(rd.Seq, 0)
}

// seedRead is phase 1 for the chunk's read-th read: PWMs (into its
// slot), candidates, windows. A malformed read queues nothing and so
// comes out unmapped, not fatal.
func (m *mapper) seedRead(read int, rd *fastq.Read) {
	fwd, rev := &m.pwms[2*read], &m.pwms[2*read+1]
	var t0 time.Time
	if m.met != nil {
		t0 = time.Now()
	}
	e := m.e
	if e.fillPWM(fwd, rd) != nil {
		return
	}
	rev.FillReverseComplementOf(fwd)
	minVotes := e.cfg.MinSeedVotes
	if len(rd.Seq) < 2*e.cfg.K {
		minVotes = 1
	}
	opts := kmer.CandidateOptions{
		MaxCandidates: e.cfg.MaxCandidates,
		MinVotes:      minVotes,
		MaxBucket:     e.cfg.MaxBucket,
		// SemiGlobal windows are padded, so nearby diagonals (indel
		// shifts) can merge into one candidate; Global windows must
		// start on the exact diagonal.
		Slack: 2,
	}
	pad := e.cfg.Pad
	if e.cfg.AlignMode == phmm.Global {
		pad = 0
		opts.Slack = 0
	}
	strands := [2]*pwm.Matrix{fwd, rev}
	// Collect candidates from both strands first so the vote filter is
	// relative to the read's best location overall. The CandidatesInto
	// result aliases m.candBuf and is invalidated by the second strand's
	// query, so candidates are copied out as they stream.
	cands := m.scored[:0]
	bestVotes := int32(0)
	var seedHits, seedMasked int64
	for si, p := range strands {
		for _, cand := range e.idx.CandidatesInto(p.Calls(), opts, &m.candBuf) {
			cands = append(cands, scoredCand{sc: si, cand: cand})
			if cand.Votes > bestVotes {
				bestVotes = cand.Votes
			}
		}
		// Stats are reset per CandidatesInto call: read them per strand.
		seedHits += m.candBuf.Stats.Hits
		seedMasked += m.candBuf.Stats.Masked
	}
	m.scored = cands
	voteCut := int32(e.cfg.MinVoteFraction * float64(bestVotes))
	for _, cs := range cands {
		cand := cs.cand
		if cand.Votes < voteCut {
			continue
		}
		globalStart := int(cand.Start)
		if globalStart < e.ownLo || globalStart >= e.ownHi {
			continue
		}
		window, clippedStart := e.ref.Window(globalStart-pad, len(rd.Seq)+2*pad)
		if len(window) < len(rd.Seq) && e.cfg.AlignMode == phmm.Global {
			continue
		}
		if len(window) == 0 {
			continue
		}
		// The seed says read position 0 sits at global position
		// globalStart, i.e. window column globalStart-clippedStart
		// (= Pad unless the window was clipped at a genome edge) — the
		// diagonal the banded kernel anchors to.
		m.pending = append(m.pending, pendingAlign{
			read: read, window: window, diag: globalStart - clippedStart,
			loc: location{windowStart: clippedStart, minus: cs.sc == 1, p: strands[cs.sc]},
		})
	}
	if m.met != nil {
		m.met.seedSec.ObserveDuration(time.Since(t0))
		m.met.candidates.Add(int64(len(cands)))
		m.met.seedHits.Add(seedHits)
		m.met.seedMasked.Add(seedMasked)
		m.met.candPerRead.Observe(float64(len(cands)))
	}
}

// alignPending is phase 2: every pending window of the chunk is aligned
// and finished. ViterbiOnly takes each window's single best path in
// turn. Otherwise entries are binned by (read length, window length,
// diag) and each bin is swept through AlignBatch in groups of at most
// PhmmBatch windows, a tail group or a bin of one included.
func (m *mapper) alignPending() error {
	pend := m.pending
	width := m.e.cfg.PhmmBatch
	var full, partial, bin16 int64
	for start := range pend {
		if pend[start].done {
			continue
		}
		var t0 time.Time
		if m.met != nil {
			t0 = time.Now()
		}
		if m.e.cfg.ViterbiOnly {
			if err := m.viterbi(&pend[start]); err != nil {
				return err
			}
		} else {
			n, wlen, diag := pend[start].loc.p.Len(), len(pend[start].window), pend[start].diag
			idxs := append(m.bidx[:0], start)
			for k := start + 1; k < len(pend); k++ {
				if pa := &pend[k]; !pa.done && pa.loc.p.Len() == n && len(pa.window) == wlen && pa.diag == diag {
					idxs = append(idxs, k)
				}
			}
			m.bidx = idxs
			if len(idxs) >= 16 {
				bin16 += int64(len(idxs))
			}
			for off := 0; off < len(idxs); off += width {
				group := idxs[off:min(off+width, len(idxs))]
				if len(group) == width {
					full += int64(len(group))
				} else {
					partial += int64(len(group))
				}
				bxs, bys := m.bxs[:0], m.bys[:0]
				for _, k := range group {
					bxs = append(bxs, pend[k].loc.p)
					bys = append(bys, pend[k].window)
				}
				m.bxs, m.bys = bxs, bys
				results, err := m.batch.AlignBatch(bxs, bys, diag, m.e.band)
				if err != nil {
					return err
				}
				// Results are views into the batch aligner's buffers,
				// invalidated by the next AlignBatch call — finish each lane
				// (filter + contributions into the arena) before moving on.
				for l, k := range group {
					pa := &pend[k]
					pa.done = true
					if res := &results[l]; res.Err == nil {
						if err := m.finishAlignment(res, pa); err != nil {
							return err
						}
					}
				}
			}
		}
		if m.met != nil {
			m.met.alignSec.ObserveDuration(time.Since(t0))
		}
	}
	if m.met != nil {
		m.met.alignments.Add(int64(len(pend)))
		m.met.lanesFull.Add(full)
		m.met.lanesPartial.Add(partial)
		m.met.bin16.Add(bin16)
		c := m.aligner.CellsComputed() + m.batch.CellsComputed()
		m.met.cells.Add(c - m.lastCells)
		m.lastCells = c
	}
	return nil
}

// finishAlignment applies the per-location acceptance filters to one
// swept lane and extracts its contributions into the arena.
func (m *mapper) finishAlignment(res *phmm.BatchResult, pa *pendingAlign) error {
	e := m.e
	if res.LogLik/float64(pa.loc.p.Len()) < e.cfg.MinLocLogLik {
		return nil
	}
	contribs := m.grabContribs(len(pa.window))
	if cap(m.totals) < len(contribs) {
		m.totals = make([]float64, len(contribs))
	}
	totals := m.totals[:len(contribs)]
	if err := res.ContributionsInto(e.cfg.Attribution, contribs, totals); err != nil {
		return err
	}
	for j := range contribs {
		if totals[j] > 0.5 {
			// Positions materially covered by the alignment keep
			// their normalized channel vector; lightly grazed window
			// padding (total << 1) is noise and is zeroed.
			pa.accepted = true
		} else {
			contribs[j] = genome.Vec{}
		}
	}
	pa.loc.logLik, pa.loc.contribs = res.LogLik, contribs
	return nil
}

// viterbi is the single-best-path ablation: the best alignment's
// matched bases contribute deterministically (probability one each).
func (m *mapper) viterbi(pa *pendingAlign) error {
	p := pa.loc.p
	path, err := m.aligner.ViterbiBanded(p, pa.window, pa.diag, m.e.band)
	if err == phmm.ErrNoAlignment {
		return nil
	}
	if err != nil {
		return err
	}
	if path.LogProb/float64(p.Len()) < m.e.cfg.MinLocLogLik {
		return nil
	}
	contribs := m.grabContribs(len(pa.window))
	i := 0 // read cursor
	j := path.Start - 1
	for _, op := range path.Ops {
		switch op {
		case phmm.OpMatch:
			call := p.Call(i)
			if call.IsConcrete() {
				contribs[j][call] = 1
			}
			i++
			j++
		case phmm.OpInsert:
			i++
		case phmm.OpDelete:
			contribs[j][dna.ChGap] = 1
			j++
		}
	}
	pa.accepted = true
	pa.loc.logLik, pa.loc.contribs = path.LogProb, contribs
	return nil
}

// logLiks appends the locations' log-likelihoods to buf, in order.
func logLiks(locs []location, buf []float64) []float64 {
	for i := range locs {
		buf = append(buf, locs[i].logLik)
	}
	return buf
}

// weights converts one read's location log-likelihoods, in place, to
// posterior weights with a numerically safe softmax; locations below
// MinPosterior are zeroed and the surviving weights are renormalized so
// each mapped read deposits exactly one unit of posterior mass (instead
// of silently leaking the thresholded share). With BestHitOnly, the
// best location (the first, among equals) gets weight 1. It takes bare
// log-likelihoods so that genome-split can hand it a read's locations
// from every rank: the thresholding and renormalization there are this
// code, not a mirror of it.
func (e *Engine) weights(w []float64) []float64 {
	if len(w) == 0 {
		return w
	}
	if e.cfg.BestHitOnly {
		best := 0
		for i := range w {
			if w[i] > w[best] {
				best = i
			}
		}
		for i := range w {
			w[i] = 0
		}
		w[best] = 1
		return w
	}
	maxLL := math.Inf(-1)
	for _, ll := range w {
		if ll > maxLL {
			maxLL = ll
		}
	}
	sum := 0.0
	for i := range w {
		w[i] = math.Exp(w[i] - maxLL)
		sum += w[i]
	}
	surviving := 0.0
	for i := range w {
		w[i] /= sum
		if w[i] < e.cfg.MinPosterior {
			w[i] = 0
		} else {
			surviving += w[i]
		}
	}
	// The best location always clears any MinPosterior < 1/len(w)...
	// but guard against a degenerate threshold zeroing everything.
	if surviving > 0 && surviving < 1 {
		inv := 1 / surviving
		for i := range w {
			w[i] *= inv
		}
	}
	return w
}

// accumulate returns the emit callback of an accumulating run: it folds
// each read's posterior-weighted contributions into acc. Stats fields
// are updated atomically; the accumulator handles its own locking.
func (m *mapper) accumulate(acc genome.Accumulator, st *Stats) func(int, []location) error {
	met := m.met
	return func(_ int, locs []location) error {
		if len(locs) == 0 {
			atomic.AddInt64(&st.Unmapped, 1)
			if met != nil {
				met.unmapped.Inc()
			}
			return nil
		}
		atomic.AddInt64(&st.Mapped, 1)
		ws := m.e.weights(logLiks(locs, m.wbuf[:0]))
		m.wbuf = ws
		var tAcc time.Time
		if met != nil {
			tAcc = time.Now()
		}
		accepted := int64(0)
		for i, loc := range locs {
			if ws[i] == 0 {
				continue
			}
			accepted++
			acc.AddRange(loc.windowStart, loc.contribs, ws[i])
		}
		atomic.AddInt64(&st.Locations, accepted)
		if met != nil {
			met.accumSec.ObserveDuration(time.Since(tAcc))
			met.mapped.Inc()
			met.locations.Add(accepted)
		}
		return nil
	}
}

// MapReads maps an in-memory read slice: MapReadsFrom over a slice
// source, with no barrier policy.
func (e *Engine) MapReads(reads []*fastq.Read, acc genome.Accumulator) (Stats, error) {
	return e.MapReadsFrom(fastq.SliceSource(reads), acc, nil)
}
