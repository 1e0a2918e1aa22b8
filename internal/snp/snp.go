// Package snp turns accumulated per-position nucleotide probabilities
// into SNP calls via the paper's likelihood-ratio framework (§VI Step
// 3), and provides the evaluation harness (true/false positives against
// a planted truth set) used by the Table I and Table III experiments,
// plus a minimal VCF writer for interoperability.
package snp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"

	"gnumap/internal/dna"
	"gnumap/internal/genome"
	"gnumap/internal/lrt"
	"gnumap/internal/obs"
	"gnumap/internal/simulate"
	"gnumap/internal/stats"
)

// Call is one called variant.
type Call struct {
	// Contig and Pos are the contig-relative (0-based) location.
	Contig string
	Pos    int
	// GlobalPos is the position in the reference's concatenated
	// coordinate space.
	GlobalPos int
	// Ref is the reference base.
	Ref dna.Code
	// Allele is the dominant called channel.
	Allele dna.Channel
	// Allele2 is the second allele for heterozygous calls (equals
	// Allele otherwise).
	Allele2 dna.Channel
	// Het marks a heterozygous diploid call.
	Het bool
	// Stat and PValue are the LRT statistic and its χ²₁ p-value.
	Stat   float64
	PValue float64
	// Depth is the total accumulated mass at the position (the
	// effective coverage).
	Depth float64
}

// Config controls calling.
type Config struct {
	// Ploidy selects the hypothesis family (default Monoploid).
	Ploidy lrt.Ploidy
	// Alpha is the family-wise significance level (default 0.05); the
	// per-test cutoff is the paper's α/5 adjustment. Zero selects the
	// default; a negative value disables the significance filter
	// entirely (every tested candidate passes — only the variant and
	// allele-balance filters apply).
	Alpha float64
	// UseFDR switches from the fixed cutoff to Benjamini–Hochberg
	// control at level Alpha across all tested positions.
	UseFDR bool
	// MinDepth skips positions with less accumulated mass (default 2):
	// below it the LRT has essentially no power and the χ²
	// approximation is poor. Zero selects the default; a negative value
	// disables the depth filter (every position is tested).
	MinDepth float64
	// MinHetMinorFraction demotes heterozygous calls whose minor
	// allele holds less than this share of the position's mass to
	// homozygous top-allele calls (default 0.25; negative disables).
	// At short-read error rates a handful of same-base errors can
	// out-fit the homozygous model on raw counts alone; true
	// heterozygotes sit near 0.5. This is the allele-balance filter
	// every production genotyper applies in some form.
	MinHetMinorFraction float64
	// CallWorkers sets the calling sweep's worker count: 0 uses
	// GOMAXPROCS, 1 or negative sweeps on the calling goroutine. The
	// sweep walks whole accumulator tiles (genome.TileSize) and is
	// bit-identical at any worker count — tiles are concatenated in
	// genome order before the single global significance pass. It is an
	// execution knob, deliberately absent from checkpoint fingerprints.
	CallWorkers int
	// Metrics, when non-nil, receives the caller's stage timers and
	// counters (call.collect.seconds, call.finalize.seconds,
	// call.tested, call.prescreened, call.significant, call.snps; the
	// tile sweep adds call.workers, call.chunks and per-tile
	// call.sweep.seconds).
	Metrics *obs.Registry

	// noPrescreen bypasses the coverage/allele prescreen (see
	// prescreen.go). Test-only: the prescreen property tests compare the
	// screened sweep against this exhaustive one.
	noPrescreen bool
}

// withDefaults fills zero values. Every filter threshold follows one
// convention: zero selects the documented default, a negative value
// disables the filter. (A literal zero cannot mean "no filter" —
// Go's zero value must keep selecting the default — so disabling is
// spelled with a negative, as MinHetMinorFraction always did.)
// Negative values pass through unchanged, so resolving is idempotent
// and checkpoint fingerprints of existing configs are unaffected.
func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.MinDepth == 0 {
		c.MinDepth = 2
	}
	if c.MinHetMinorFraction == 0 {
		c.MinHetMinorFraction = 0.25
	}
	return c
}

// Resolved returns the config with every default filled in, so
// equivalent configurations (zero value vs explicit defaults) render
// identically — checkpoint fingerprints hash the resolved form.
func (c Config) Resolved() Config { return c.withDefaults() }

// Stats summarizes a calling run.
type Stats struct {
	// Tested is the number of positions with enough depth to test.
	Tested int
	// Significant is the number of positions whose LRT cleared the
	// cutoff (whether or not they differ from the reference).
	Significant int
	// SNPs is the number of significant positions differing from the
	// reference (len of the returned calls).
	SNPs int
}

// Candidate is one tested position awaiting the significance
// decision: the provisional call plus the LRT fields finalization
// needs (runner-up allele, allele balance). Candidates are plain data
// so a distributed run can gather every shard's candidates at rank 0
// and apply ONE global multiple-testing correction — Benjamini–
// Hochberg depends on the full ranked p-value list, so a per-shard
// pass changes the calls with the shard count.
type Candidate struct {
	Call          Call
	Second        dna.Channel
	MinorFraction float64
}

// clampSweep clips a global sweep range [from, to) to the intersection
// of the accumulator's window (offset maps accumulator index 0 to
// global position offset) and the reference. Every range-taking sweep —
// CollectRange (and so every tile of the IncrementalCaller), WritePileup
// — clamps through this one helper.
func clampSweep(ref *genome.Reference, accLen, offset, from, to int) (int, int) {
	if from < offset {
		from = offset
	}
	if to > offset+accLen {
		to = offset + accLen
	}
	if to > ref.Len() {
		to = ref.Len()
	}
	return from, to
}

// CollectRange runs the LRT over global positions [from, to) of the
// accumulator, offset mapping accumulator index 0 to global position
// `offset` (non-zero in genome-split mode), and returns every
// screen-passing tested position as a Candidate. Stats has Tested
// filled (every depth-passing position, screened or not); significance
// is decided by FinalizeCalls.
//
// The sweep reads through a lock-free frozen view and runs the
// conservative prescreen (prescreen.go) in front of the LRT. NORM
// planes stream through the vectorized sweep (screen_vector.go), the
// discretized layouts through the scalar loop (collectScalar); both
// screen identically, so the two and the tile sweep are bit-identical.
func CollectRange(ref *genome.Reference, acc genome.Accumulator, offset, from, to int, cfg Config) ([]Candidate, Stats, error) {
	return collectRange(ref, acc, offset, from, to, cfg, true)
}

// collectRange is CollectRange with the vectorized sweep allowed or not:
// tests pass vector=false to pin the scalar loop, the oracle the
// vectorized sweep must match.
func collectRange(ref *genome.Reference, acc genome.Accumulator, offset, from, to int, cfg Config, vector bool) ([]Candidate, Stats, error) {
	cfg = cfg.withDefaults()
	var st Stats
	if ref == nil || acc == nil {
		return nil, st, fmt.Errorf("snp: nil reference or accumulator")
	}
	defer cfg.Metrics.StartTimer("call.collect.seconds")()
	from, to = clampSweep(ref, acc.Len(), offset, from, to)
	fz, err := genome.Freeze(acc)
	if err != nil {
		return nil, st, err
	}
	var candidates []Candidate
	var screened int64
	if vector && vectorEligible(&cfg, fz) {
		candidates, st.Tested, screened, err = collectRangeVector(ref, fz, offset, from, to, &cfg)
	} else {
		candidates, st.Tested, screened, err = collectScalar(ref, fz, offset, from, to, &cfg, nil)
	}
	if err != nil {
		return nil, st, err
	}
	cfg.Metrics.Counter("call.tested").Add(int64(st.Tested))
	cfg.Metrics.Counter("call.prescreened").Add(screened)
	return candidates, st, nil
}

// collectScalar is the per-position sweep over global positions
// [from, to): gather the channel vector, sum its depth, screen, test,
// and append the survivors to cands. It is the whole sweep for the
// discrete layouts and the unscreened oracle, and the vectorized
// sweep's sub-block tail. Returns the tested and screened counts; on
// error they cover the positions before it.
func collectScalar(ref *genome.Reference, fz *genome.Frozen, offset, from, to int, cfg *Config, cands []Candidate) ([]Candidate, int, int64, error) {
	var tested int
	var screened int64
	for g := from; g < to; g++ {
		v := fz.Vector(g - offset)
		var depth float64
		for _, x := range v {
			depth += x
		}
		if depth < cfg.MinDepth {
			continue
		}
		refBase, err := ref.Base(g)
		if err != nil {
			return nil, tested, screened, err
		}
		if !cfg.noPrescreen && prescreenSkip(v, depth, refBase, cfg) {
			// Provably cannot produce a SNP call at any significance
			// threshold; counted as tested, never a candidate.
			tested++
			screened++
			continue
		}
		res, err := lrt.Test(v, cfg.Ploidy)
		if err != nil {
			return nil, tested, screened, err
		}
		tested++
		cands = appendCandidate(cands, ref, g, refBase, depth, &res)
	}
	return cands, tested, screened, nil
}

// appendCandidate appends tested position g to cands, unless it falls in
// an inter-contig spacer, which is not callable.
func appendCandidate(cands []Candidate, ref *genome.Reference, g int, refBase dna.Code, depth float64, res *lrt.Result) []Candidate {
	contig, local, err := ref.Locate(g)
	if err != nil {
		return cands
	}
	return append(cands, Candidate{
		Call: Call{
			Contig:    contig,
			Pos:       local,
			GlobalPos: g,
			Ref:       refBase,
			Allele:    res.Top,
			Allele2:   res.Top,
			Het:       res.Heterozygous,
			Stat:      res.Stat,
			PValue:    res.PValue,
			Depth:     depth,
		},
		Second:        res.Second,
		MinorFraction: res.MinorFraction,
	})
}

// FinalizeCalls applies the significance decision — the fixed
// adjusted cutoff, or one Benjamini–Hochberg pass across ALL given
// candidates — plus the het allele-balance filter, and returns the
// SNP calls sorted by position. The candidate set must cover the
// whole tested family: in a distributed run, gather every shard's
// candidates before calling this (BH's per-hypothesis threshold
// depends on the global ranked p-value list).
func FinalizeCalls(candidates []Candidate, cfg Config) ([]Call, Stats, error) {
	cfg = cfg.withDefaults()
	st := Stats{Tested: len(candidates)}
	defer cfg.Metrics.StartTimer("call.finalize.seconds")()
	significant := make([]bool, len(candidates))
	switch {
	case cfg.Alpha < 0:
		// Negative Alpha disables the significance filter (see Config):
		// every candidate passes; only the variant and allele-balance
		// filters below apply.
		for i := range significant {
			significant[i] = true
		}
	case cfg.UseFDR:
		ps := make([]float64, len(candidates))
		for i, c := range candidates {
			ps[i] = c.Call.PValue
		}
		var err error
		significant, err = stats.RejectFDR(ps, cfg.Alpha)
		if err != nil {
			return nil, st, err
		}
	default:
		cutoff, err := lrt.AdjustedPValueCutoff(cfg.Alpha)
		if err != nil {
			return nil, st, err
		}
		for i, c := range candidates {
			significant[i] = c.Call.PValue <= cutoff
		}
	}
	var calls []Call
	for i, c := range candidates {
		if !significant[i] {
			continue
		}
		st.Significant++
		call := c.Call
		if call.Het {
			call.Allele2 = c.Second
			if cfg.MinHetMinorFraction > 0 && c.MinorFraction < cfg.MinHetMinorFraction {
				// Allele balance too skewed for a genuine het: demote
				// to the homozygous top allele.
				call.Het = false
				call.Allele2 = call.Allele
			}
		}
		if isSNP(call) {
			st.SNPs++
			calls = append(calls, call)
		}
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].GlobalPos < calls[j].GlobalPos })
	cfg.Metrics.Counter("call.significant").Add(int64(st.Significant))
	cfg.Metrics.Counter("call.snps").Add(int64(st.SNPs))
	return calls, st, nil
}

// CallAll calls SNPs over a full-length accumulator in one shot: a
// fresh IncrementalCaller's first Finalize.
func CallAll(ref *genome.Reference, acc genome.Accumulator, cfg Config) ([]Call, Stats, error) {
	ic, err := NewIncrementalCaller(ref, acc, 0, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	return ic.Finalize()
}

// isSNP reports whether a significant call differs from the reference.
// A gap-dominant position is an indel signal, not a SNP; the paper's
// caller reports SNPs, so gap calls are excluded.
func isSNP(c Call) bool {
	refCh := dna.Channel(c.Ref)
	if !c.Ref.IsConcrete() {
		// Reference N: any confident base is a "difference", but it is
		// not a meaningful SNP; skip.
		return false
	}
	if c.Het {
		// Heterozygous: a SNP if either allele differs from reference.
		aDiff := c.Allele != refCh && c.Allele != dna.ChGap
		bDiff := c.Allele2 != refCh && c.Allele2 != dna.ChGap
		return aDiff || bDiff
	}
	return c.Allele != refCh && c.Allele != dna.ChGap
}

// AltAllele returns the called variant allele: for a heterozygous call
// whose top allele matches the reference, the second allele.
func (c Call) AltAllele() dna.Channel {
	refCh := dna.Channel(c.Ref)
	if c.Het && c.Allele == refCh {
		return c.Allele2
	}
	return c.Allele
}

// Metrics is the Table I / Table III accuracy accounting.
type Metrics struct {
	TP, FP, FN int
	// WrongAllele counts calls at a true SNP position with the wrong
	// alternate allele (counted in FP and FN, reported for diagnosis).
	WrongAllele int
}

// Precision returns TP/(TP+FP), 0 when nothing was called.
func (m Metrics) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Sensitivity returns TP/(TP+FN), 0 when the truth set is empty.
func (m Metrics) Sensitivity() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FN)
}

// Evaluate scores calls against a planted truth catalog (positions in
// global coordinates). A call is a true positive when its position is
// in the catalog and its alternate allele matches the planted one.
func Evaluate(calls []Call, truth []simulate.SNP) Metrics {
	var m Metrics
	byPos := make(map[int]simulate.SNP, len(truth))
	for _, s := range truth {
		byPos[s.Pos] = s
	}
	matched := make(map[int]bool, len(truth))
	for _, c := range calls {
		s, ok := byPos[c.GlobalPos]
		if !ok {
			m.FP++
			continue
		}
		if dna.Channel(s.Alt) == c.AltAllele() {
			if !matched[c.GlobalPos] {
				m.TP++
				matched[c.GlobalPos] = true
			}
			continue
		}
		m.WrongAllele++
		m.FP++
	}
	m.FN = len(truth) - m.TP
	return m
}

// WriteVCF emits calls as minimal VCF 4.2.
func WriteVCF(w io.Writer, calls []Call, source string) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "##fileformat=VCFv4.2\n##source=%s\n", source); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(bw, "##INFO=<ID=DP,Number=1,Type=Float,Description=\"Accumulated probability depth\">"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(bw, "##INFO=<ID=LRT,Number=1,Type=Float,Description=\"-2 log likelihood ratio\">"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(bw, "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO"); err != nil {
		return err
	}
	for _, c := range calls {
		qual := 0.0
		if c.PValue > 0 {
			qual = -10 * math.Log10(c.PValue)
		} else {
			qual = 999
		}
		alt := c.AltAllele().String()
		if c.Het && c.Allele != dna.Channel(c.Ref) && c.Allele2 != dna.Channel(c.Ref) &&
			c.Allele2 != c.Allele && c.Allele2 != dna.ChGap {
			// Triallelic het: both alleles differ from the reference.
			alt = c.Allele.String() + "," + c.Allele2.String()
		}
		if _, err := fmt.Fprintf(bw, "%s\t%d\t.\t%s\t%s\t%.1f\tPASS\tDP=%.2f;LRT=%.3f\n",
			c.Contig, c.Pos+1, c.Ref, alt, qual, c.Depth, c.Stat); err != nil {
			return err
		}
	}
	return bw.Flush()
}
