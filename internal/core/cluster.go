package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"gnumap/internal/cluster"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
)

func init() {
	gob.Register(ftResult{})
	gob.Register(ftCtrl{})
}

// The paper's two MPI modes (§VI Step 1):
//
//   - Read-split ("shared memory" in Figure 4): every node holds the
//     whole genome and accumulator, maps a 1/N shard of the reads, and
//     the accumulators are reduced to the root at the end. Minimal
//     communication, maximal memory.
//
//   - Genome-split ("spread memory" in Figure 4): every node holds a
//     1/N slice of the genome and accumulator, and every node maps all
//     reads against its slice. Posterior-location normalization needs
//     the *global* likelihood mass of each read, so nodes exchange
//     per-read likelihood sums every batch (three Allreduce rounds: a
//     max and a sum giving a distributed log-sum-exp, then a
//     survivor-mass sum so post-threshold renormalization matches the
//     shared-memory engine). Alignments
//     spilling over a slice boundary route their out-of-range
//     contributions to the owning node point-to-point at the end.
//     Minimal memory, more communication — which is why the paper's
//     Figure 4 shows it processing fewer sequences per second.

// readShard returns rank r's contiguous shard of n items.
func readShard(n, size, r int) (lo, hi int) {
	lo = n * r / size
	hi = n * (r + 1) / size
	return lo, hi
}

// RunReadSplit executes read-split mapping on one cluster node. Every
// rank maps its shard of reads against the full reference into a local
// full-length accumulator; accumulators are then reduced to rank 0. The
// returned accumulator is the merged result at rank 0 and nil
// elsewhere; the returned Stats are global on every rank.
func RunReadSplit(c *cluster.Comm, ref *genome.Reference, reads []*fastq.Read, mode genome.Mode, cfg Config) (genome.Accumulator, Stats, error) {
	if c.OpTimeout() > 0 {
		// Deadlines configured: run the fault-tolerant coordinator
		// protocol, which survives worker loss by reassigning shards.
		return runReadSplitFT(c, ref, reads, mode, cfg)
	}
	var st Stats
	eng, err := NewEngine(ref, cfg)
	if err != nil {
		return nil, st, err
	}
	acc, err := NewAccumulator(mode, ref.Len(), cfg)
	if err != nil {
		return nil, st, err
	}
	lo, hi := readShard(len(reads), c.Size(), c.Rank())
	local, err := eng.MapReads(reads[lo:hi], acc, 0)
	if err != nil {
		return nil, st, err
	}
	// Fold worker shards before the cross-rank reduction so the
	// collective tail always sees a plain striped accumulator.
	combined, err := CombineAccumulator(acc, cfg.Metrics)
	if err != nil {
		return nil, st, err
	}
	return reduceReadSplit(c, combined, local)
}

// reduceReadSplit is the collective tail shared by the slice and
// streaming read-split paths: Allreduce the local Stats into global
// ones and fold the per-rank accumulators to rank 0.
func reduceReadSplit(c *cluster.Comm, acc genome.Accumulator, local Stats) (genome.Accumulator, Stats, error) {
	var st Stats
	// Global stats.
	sv, err := c.Allreduce([]float64{
		float64(local.Mapped), float64(local.Unmapped), float64(local.Locations),
	}, cluster.SumFloat64s)
	if err != nil {
		return nil, st, err
	}
	gs := sv.([]float64)
	st = Stats{Mapped: int64(gs[0]), Unmapped: int64(gs[1]), Locations: int64(gs[2])}

	// Reduce accumulator state to rank 0. Serialized states travel as
	// messages (the paper's "communicate the state of their genome"),
	// folded along a binomial tree so the merge work is distributed
	// across ranks instead of serializing at the root.
	data, err := acc.State()
	if err != nil {
		return nil, st, err
	}
	mergeStates := func(a, b any) (any, error) {
		left, err := genome.CloneEmpty(acc)
		if err != nil {
			return nil, err
		}
		if err := left.LoadStateBytes(a.([]byte)); err != nil {
			return nil, err
		}
		if err := mergeStateInto(left, b.([]byte)); err != nil {
			return nil, err
		}
		return left.State()
	}
	merged, err := c.ReduceTree(0, data, mergeStates)
	if err != nil {
		return nil, st, err
	}
	if c.Rank() != 0 {
		return nil, st, nil
	}
	if err := acc.LoadStateBytes(merged.([]byte)); err != nil {
		return nil, st, err
	}
	return acc, st, nil
}

// GenomeSlice returns the [lo, hi) slice of the reference owned by a
// rank in genome-split mode.
func GenomeSlice(refLen, size, rank int) (lo, hi int) {
	return readShard(refLen, size, rank)
}

// spillBatch flattens boundary-crossing contributions for transport:
// groups of 6 float64s (position, five channel values), weight already
// applied.
type spillBatch []float64

// genomeSplitBatch is the number of reads per genome-split
// normalization round: each batch costs three Allreduce collectives (a
// max, a sum, and a post-threshold survivor-mass sum, each over one
// float64 per read).
const genomeSplitBatch = 256

// RunGenomeSplit executes genome-split mapping on one cluster node.
// Every rank maps *all* reads against its genome slice; per-read
// location posteriors are normalized globally via per-batch Allreduce
// (log-sum-exp split into a max round and a sum round), and
// contributions spilling outside the slice are routed to their owning
// rank at the end. Returns the local slice accumulator, the owned
// range, and global Stats.
func RunGenomeSplit(c *cluster.Comm, ref *genome.Reference, reads []*fastq.Read, mode genome.Mode, cfg Config) (genome.Accumulator, int, int, Stats, error) {
	var st Stats
	cfg = cfg.withDefaults()
	size, rank := c.Size(), c.Rank()
	L := ref.Len()
	// Validate globally-visible conditions identically on every rank:
	// SPMD code must not have one rank error out of a collective while
	// the others enter it.
	if L < size {
		return nil, 0, 0, st, fmt.Errorf("core: %d nodes for a %d-base reference leaves empty slices", size, L)
	}
	lo, hi := GenomeSlice(L, size, rank)
	// Index an extended slice so boundary-straddling reads are found;
	// ownership of a location is decided by its seed start.
	maxReadLen := 0
	for _, rd := range reads {
		if len(rd.Seq) > maxReadLen {
			maxReadLen = len(rd.Seq)
		}
	}
	ext := maxReadLen + cfg.Pad + 1
	idxLo, idxHi := lo-ext, hi+ext
	if idxLo < 0 {
		idxLo = 0
	}
	if idxHi > L {
		idxHi = L
	}
	eng, err := newEngineSlice(ref, idxLo, idxHi, cfg)
	if err != nil {
		return nil, 0, 0, st, err
	}
	eng.ownLo, eng.ownHi = lo, hi

	// Genome-split drives one serial mapper per rank (the Allreduce
	// rounds are the bottleneck, not lock contention), so the striped
	// accumulator is always the right layout here.
	acc, err := genome.New(mode, hi-lo)
	if err != nil {
		return nil, 0, 0, st, err
	}
	m, err := eng.getMapper()
	if err != nil {
		return nil, 0, 0, st, err
	}
	spills := make(map[int]spillBatch) // destination rank -> flattened

	for base := 0; base < len(reads); base += genomeSplitBatch {
		end := base + genomeSplitBatch
		if end > len(reads) {
			end = len(reads)
		}
		b := end - base
		// Phase 1: local alignment of the batch.
		batchLocs := make([][]location, b)
		localMax := make([]float64, b)
		// keep: the round's locations must outlive the Allreduce rounds.
		err := m.mapBatch(reads[base:end], true, func(i int, locs []location) error {
			batchLocs[i], localMax[i] = locs, math.Inf(-1)
			for _, l := range locs {
				if l.logLik > localMax[i] {
					localMax[i] = l.logLik
				}
			}
			return nil
		})
		if err != nil {
			return nil, 0, 0, st, err
		}
		// Phase 2: global normalization (distributed log-sum-exp).
		gmaxAny, err := c.Allreduce(localMax, cluster.MaxFloat64s)
		if err != nil {
			return nil, 0, 0, st, err
		}
		gmax := gmaxAny.([]float64)
		localSum := make([]float64, b)
		for i := 0; i < b; i++ {
			if math.IsInf(gmax[i], -1) {
				continue
			}
			for _, l := range batchLocs[i] {
				localSum[i] += math.Exp(l.logLik - gmax[i])
			}
		}
		gsumAny, err := c.Allreduce(localSum, cluster.SumFloat64s)
		if err != nil {
			return nil, 0, 0, st, err
		}
		gsum := gsumAny.([]float64)
		// Phase 2b: survivor-mass round. The shared-memory engine
		// renormalizes the weights surviving the MinPosterior threshold
		// so each mapped read deposits unit mass; mirroring that needs
		// the *global* surviving mass, hence a third Allreduce.
		localSurv := make([]float64, b)
		if !cfg.BestHitOnly {
			for i := 0; i < b; i++ {
				if math.IsInf(gmax[i], -1) || gsum[i] <= 0 {
					continue
				}
				for _, l := range batchLocs[i] {
					if w := math.Exp(l.logLik-gmax[i]) / gsum[i]; w >= cfg.MinPosterior {
						localSurv[i] += w
					}
				}
			}
		}
		gsurvAny, err := c.Allreduce(localSurv, cluster.SumFloat64s)
		if err != nil {
			return nil, 0, 0, st, err
		}
		gsurv := gsurvAny.([]float64)
		// Phase 3: apply weighted contributions; spill out-of-range
		// positions to their owners.
		for i := 0; i < b; i++ {
			if rank == 0 { // read-level stats counted once globally
				if math.IsInf(gmax[i], -1) || gsum[i] <= 0 {
					st.Unmapped++
				} else {
					st.Mapped++
				}
			}
			for _, l := range batchLocs[i] {
				var w float64
				if cfg.BestHitOnly {
					if l.logLik == gmax[i] {
						w = 1
					}
				} else if gsum[i] > 0 {
					w = math.Exp(l.logLik-gmax[i]) / gsum[i]
					if w < cfg.MinPosterior {
						w = 0
					} else if gsurv[i] > 0 && gsurv[i] < 1 {
						w /= gsurv[i]
					}
				}
				if w == 0 {
					continue
				}
				st.Locations++
				applySliceContribution(acc, lo, hi, L, size, l, w, spills)
			}
		}
	}
	// The genome-split path drives mapBatch directly rather than going
	// through MapReads, so mirror its read-level metric accounting here
	// (local counts: mapped/unmapped are nonzero only at rank 0, which
	// counts each read once globally).
	if m.met != nil {
		m.met.mapped.Add(st.Mapped)
		m.met.unmapped.Add(st.Unmapped)
		m.met.locations.Add(st.Locations)
	}
	// Boundary exchange: everyone sends every other rank its spill
	// (possibly empty), then receives.
	const spillTag = 17
	for r := 0; r < size; r++ {
		if r == rank {
			continue
		}
		if err := c.Send(r, spillTag, []float64(spills[r])); err != nil {
			return nil, 0, 0, st, err
		}
	}
	for r := 0; r < size; r++ {
		if r == rank {
			continue
		}
		v, err := c.Recv(r, spillTag)
		if err != nil {
			return nil, 0, 0, st, err
		}
		incoming := v.([]float64)
		if len(incoming)%6 != 0 {
			return nil, 0, 0, st, fmt.Errorf("core: malformed spill of %d floats from rank %d", len(incoming), r)
		}
		for off := 0; off < len(incoming); off += 6 {
			pos := int(incoming[off])
			var vec genome.Vec
			copy(vec[:], incoming[off+1:off+6])
			acc.AddRange(pos-lo, []genome.Vec{vec}, 1)
		}
	}
	// Global stats.
	sv, err := c.Allreduce([]float64{
		float64(st.Mapped), float64(st.Unmapped), float64(st.Locations),
	}, cluster.SumFloat64s)
	if err != nil {
		return nil, 0, 0, st, err
	}
	gs := sv.([]float64)
	st = Stats{Mapped: int64(gs[0]), Unmapped: int64(gs[1]), Locations: int64(gs[2])}
	return acc, lo, hi, st, nil
}

// applySliceContribution adds the in-range part of a weighted location
// to the local accumulator and buffers the rest for the owning ranks.
func applySliceContribution(acc genome.Accumulator, lo, hi, L, size int, l location, w float64, spills map[int]spillBatch) {
	start := l.windowStart
	endPos := start + len(l.contribs)
	if start >= lo && endPos <= hi {
		acc.AddRange(start-lo, l.contribs, w)
		return
	}
	// Split: in-range part via AddRange (clipped), out-of-range
	// positions spilled individually.
	acc.AddRange(start-lo, l.contribs, w)
	for k, vec := range l.contribs {
		pos := start + k
		if pos >= lo && pos < hi {
			continue
		}
		if pos < 0 || pos >= L {
			continue
		}
		owner := ownerOf(pos, L, size)
		var weighted genome.Vec
		nonzero := false
		for ch := range vec {
			weighted[ch] = vec[ch] * w
			if weighted[ch] != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			continue
		}
		sp := spills[owner]
		sp = append(sp, float64(pos))
		sp = append(sp, weighted[:]...)
		spills[owner] = sp
	}
}

// ownerOf returns the rank owning a global position under GenomeSlice.
func ownerOf(pos, L, size int) int {
	// GenomeSlice gives rank r the range [L·r/size, L·(r+1)/size); the
	// inverse is floor((pos·size + size - 1 ... )) — search locally to
	// stay exactly consistent with integer division.
	r := pos * size / L
	for r > 0 {
		lo, _ := GenomeSlice(L, size, r)
		if pos >= lo {
			break
		}
		r--
	}
	for r < size-1 {
		_, hi := GenomeSlice(L, size, r)
		if pos < hi {
			break
		}
		r++
	}
	return r
}

// Fault-tolerant read-split (coordinator protocol).
//
// The plain read-split path above assumes every rank survives: its
// collectives (Allreduce, ReduceTree) block forever on a dead peer.
// When an op timeout is configured, RunReadSplit switches to an
// explicitly coordinated protocol instead:
//
//  1. Every rank maps its 1/N read shard into a full-length local
//     accumulator, as before.
//  2. Workers send (stats, serialized state) to rank 0 and await
//     control messages. Rank 0 receives each worker's result with a
//     deadline, extending patience while the worker's heartbeats show
//     it alive (slow ≠ dead).
//  3. Any worker whose result never arrives is declared dead and its
//     *entire unacknowledged shard* is reassigned: round-robin over
//     surviving workers (falling back to rank 0 itself when none are
//     left), so every read is mapped exactly once in the merged
//     result.
//  4. Rank 0 merges all states, stamps Stats.LostRanks, and sends a
//     Done control message carrying global stats to the survivors.
//
// Rank 0 itself is not recoverable — it holds the merge — so its death
// aborts the run (workers detect it via heartbeat loss and error out).
// Fault-free FT runs merge the same per-shard accumulators as the
// plain path, so results are identical; only the merge topology
// (linear at root vs binomial tree) differs, which is exact for the
// float merges involved... up to the same reordering tolerance the
// plain path already accepts across node counts.

// ftResult is a worker's report: mapping stats for the shard it just
// mapped plus the serialized accumulator state.
type ftResult struct {
	Stats Stats
	State []byte
}

// ftCtrl is a coordinator order: either a shard reassignment
// ([Lo, Hi) of the global read slice) or Done with the global stats.
type ftCtrl struct {
	Done   bool
	Lo, Hi int
	Stats  Stats
}

// FT protocol tags (user tag space; must not collide with other
// point-to-point tags used alongside — read-split uses none).
const (
	ftResultTag = 1001
	ftCtrlTag   = 1002
)

// ftMaxExtensions bounds how many deadline extensions a patient
// receive grants a peer whose heartbeats still arrive.
const ftMaxExtensions = 40

// mergeStateInto deserializes a peer's accumulator state into a scratch
// accumulator of dst's layout and merges it into dst — the one fold
// under the ReduceTree operator, the checkpoint-round collector and the
// fault-tolerant coordinator.
func mergeStateInto(dst genome.Accumulator, state []byte) error {
	tmp, err := genome.CloneEmpty(dst)
	if err != nil {
		return err
	}
	if err := tmp.LoadStateBytes(state); err != nil {
		return err
	}
	return dst.Merge(tmp)
}

// runReadSplitFT is the deadline- and failure-aware read-split path.
func runReadSplitFT(c *cluster.Comm, ref *genome.Reference, reads []*fastq.Read, mode genome.Mode, cfg Config) (genome.Accumulator, Stats, error) {
	var st Stats
	eng, err := NewEngine(ref, cfg)
	if err != nil {
		return nil, st, err
	}
	// The FT protocol serializes and re-serializes accumulator state
	// around every reassignment; it stays on the striped layout so each
	// report is a single State() with no shard bookkeeping in between.
	acc, err := genome.New(mode, ref.Len())
	if err != nil {
		return nil, st, err
	}
	lo, hi := readShard(len(reads), c.Size(), c.Rank())
	local, err := eng.MapReads(reads[lo:hi], acc, 0)
	if err != nil {
		return nil, st, err
	}
	if c.Rank() != 0 {
		wst, err := ftWorker(c, eng, acc, reads, local)
		return nil, wst, err
	}
	return ftCoordinator(c, eng, acc, reads, local)
}

// ftWorker reports the local shard result to rank 0, then serves
// reassignment orders until Done (or until rank 0 is lost). The
// returned Stats are the global ones carried by the Done message.
func ftWorker(c *cluster.Comm, eng *Engine, acc genome.Accumulator, reads []*fastq.Read, local Stats) (Stats, error) {
	var st Stats
	state, err := acc.State()
	if err != nil {
		return st, err
	}
	if err := c.Send(0, ftResultTag, ftResult{Stats: local, State: state}); err != nil {
		return st, fmt.Errorf("rank %d: report result: %w", c.Rank(), err)
	}
	for {
		v, err := c.RecvPatient(0, ftCtrlTag, c.OpTimeout(), ftMaxExtensions)
		if err != nil {
			return st, fmt.Errorf("rank %d: await control: %w", c.Rank(), err)
		}
		ctrl, ok := v.(ftCtrl)
		if !ok {
			return st, fmt.Errorf("rank %d: unexpected control payload %T", c.Rank(), v)
		}
		if ctrl.Done {
			return ctrl.Stats, nil
		}
		// Reassigned shard: map it into a fresh accumulator so the
		// report carries exactly this shard's contributions.
		sub, err := genome.CloneEmpty(acc)
		if err != nil {
			return st, err
		}
		sst, err := eng.MapReads(reads[ctrl.Lo:ctrl.Hi], sub, 0)
		if err != nil {
			return st, err
		}
		sstate, err := sub.State()
		if err != nil {
			return st, err
		}
		if err := c.Send(0, ftResultTag, ftResult{Stats: sst, State: sstate}); err != nil {
			return st, fmt.Errorf("rank %d: report reassigned result: %w", c.Rank(), err)
		}
	}
}

// ftCoordinator collects worker results with deadlines, reassigns dead
// workers' shards, merges everything, and distributes global stats.
func ftCoordinator(c *cluster.Comm, eng *Engine, acc genome.Accumulator, reads []*fastq.Read, st Stats) (genome.Accumulator, Stats, error) {
	type shard struct{ lo, hi int }
	var survivors []int // surviving workers, in ack order
	var lost []int
	var orphaned []shard

	collect := func(r int) error {
		v, err := c.RecvPatient(r, ftResultTag, c.OpTimeout(), ftMaxExtensions)
		if err != nil {
			return err
		}
		res, ok := v.(ftResult)
		if !ok {
			return fmt.Errorf("rank 0: unexpected result payload %T from rank %d", v, r)
		}
		if err := mergeStateInto(acc, res.State); err != nil {
			return err
		}
		st.add(res.Stats)
		return nil
	}

	for r := 1; r < c.Size(); r++ {
		if err := collect(r); err != nil {
			if isCommLoss(err) {
				slo, shi := readShard(len(reads), c.Size(), r)
				lost = append(lost, r)
				orphaned = append(orphaned, shard{slo, shi})
				continue
			}
			return nil, st, err
		}
		survivors = append(survivors, r)
	}

	// Reassign orphaned shards round-robin over survivors; rank 0 maps
	// anything left itself, so the queue always drains.
	next := 0
	for len(orphaned) > 0 {
		sh := orphaned[0]
		orphaned = orphaned[1:]
		if len(survivors) == 0 {
			sst, err := eng.MapReads(reads[sh.lo:sh.hi], acc, 0)
			if err != nil {
				return nil, st, err
			}
			st.add(sst)
			continue
		}
		w := survivors[next%len(survivors)]
		next++
		err := c.Send(w, ftCtrlTag, ftCtrl{Lo: sh.lo, Hi: sh.hi})
		if err == nil {
			err = collect(w)
		}
		if err != nil {
			if isCommLoss(err) {
				// The survivor died mid-reassignment: drop it and requeue
				// the shard for the remaining ranks (or rank 0).
				survivors = removeRank(survivors, w)
				lost = append(lost, w)
				orphaned = append(orphaned, sh)
				continue
			}
			return nil, st, err
		}
	}

	st.LostRanks = unionRanks(st.LostRanks, lost)
	for _, w := range survivors {
		// A survivor that dies right here misses only the Done message;
		// ignore the failure rather than aborting a finished run.
		_ = c.Send(w, ftCtrlTag, ftCtrl{Done: true, Stats: st})
	}
	return acc, st, nil
}

// isCommLoss classifies errors that mean "the peer is gone or
// unreachable" — grounds for reassignment rather than abort.
func isCommLoss(err error) bool {
	return errors.Is(err, cluster.ErrTimeout) ||
		errors.Is(err, cluster.ErrRankDead) ||
		errors.Is(err, cluster.ErrCrashed) ||
		errors.Is(err, cluster.ErrClosed)
}

// removeRank drops rank w from a slice of ranks.
func removeRank(ranks []int, w int) []int {
	out := ranks[:0]
	for _, r := range ranks {
		if r != w {
			out = append(out, r)
		}
	}
	return out
}
