// Package qc computes the quality-control summaries a sequencing
// pipeline reports alongside its results: read-set statistics (lengths,
// quality distribution, base composition, implied error rate),
// reference statistics, and coverage statistics over a mapped
// accumulator (mean depth, breadth, depth histogram). The readsim and
// gnumap-snp commands print these so experiment inputs are auditable.
package qc

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"gnumap/internal/dna"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
)

// ReadStats summarizes a read set.
type ReadStats struct {
	// Count is the number of reads; Bases the total base count.
	Count, Bases int
	// MinLen/MaxLen/MeanLen describe read lengths.
	MinLen, MaxLen int
	MeanLen        float64
	// MeanQuality is the mean Phred score over all bases; MeanError is
	// the mean per-base error probability implied by the qualities
	// (not the same thing: the Phred scale is logarithmic).
	MeanQuality, MeanError float64
	// QualityHist counts bases per Phred score.
	QualityHist [fastq.MaxQuality + 1]int64
	// BaseCount counts bases per code (A, C, G, T, N).
	BaseCount [5]int64
	// GC is the G+C fraction of concrete bases.
	GC float64
}

// SummarizeReads scans a read set. Invalid reads (length mismatch) are
// skipped rather than failing QC — QC exists to describe what is there.
func SummarizeReads(reads []*fastq.Read) ReadStats {
	st := ReadStats{MinLen: math.MaxInt}
	var qualSum, errSum float64
	for _, r := range reads {
		if r == nil || r.Validate() != nil {
			continue
		}
		st.Count++
		n := len(r.Seq)
		st.Bases += n
		if n < st.MinLen {
			st.MinLen = n
		}
		if n > st.MaxLen {
			st.MaxLen = n
		}
		for i, b := range r.Seq {
			st.BaseCount[b]++
			q := r.Qual[i]
			if q > fastq.MaxQuality {
				q = fastq.MaxQuality
			}
			st.QualityHist[q]++
			qualSum += float64(q)
			errSum += fastq.ErrorProb(q)
		}
	}
	if st.Count == 0 {
		st.MinLen = 0
		return st
	}
	st.MeanLen = float64(st.Bases) / float64(st.Count)
	st.MeanQuality = qualSum / float64(st.Bases)
	st.MeanError = errSum / float64(st.Bases)
	gc := st.BaseCount[dna.G] + st.BaseCount[dna.C]
	concrete := st.Bases - int(st.BaseCount[dna.N])
	if concrete > 0 {
		st.GC = float64(gc) / float64(concrete)
	}
	return st
}

// WriteText renders the summary as an aligned report.
func (st ReadStats) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "reads:        %d (%d bases)\n", st.Count, st.Bases)
	fmt.Fprintf(bw, "read length:  min %d, max %d, mean %.1f\n", st.MinLen, st.MaxLen, st.MeanLen)
	fmt.Fprintf(bw, "base quality: mean Q%.1f (mean error %.4f)\n", st.MeanQuality, st.MeanError)
	fmt.Fprintf(bw, "composition:  A=%d C=%d G=%d T=%d N=%d (GC %.1f%%)\n",
		st.BaseCount[0], st.BaseCount[1], st.BaseCount[2], st.BaseCount[3], st.BaseCount[4], 100*st.GC)
	return bw.Flush()
}

// CoverageStats summarizes accumulated mapping depth.
type CoverageStats struct {
	// Positions is the number of accumulator positions inspected.
	Positions int
	// MeanDepth is the mean accumulated mass per position.
	MeanDepth float64
	// MaxDepth is the highest accumulated mass.
	MaxDepth float64
	// Breadth1/4/10 are the fractions of positions with accumulated
	// mass >= 1, 4, and 10 — the resequencing community's standard
	// "breadth of coverage at N×".
	Breadth1, Breadth4, Breadth10 float64
	// Hist counts positions per integer depth bucket, where a
	// position's bucket is its posterior depth rounded to the NEAREST
	// integer (half away from zero) — not truncated. Truncation put
	// every position with depth in (0, 1) in the 0x bucket, which
	// contradicted the Breadth fields' >= thresholds and made the
	// histogram's zero bucket overstate uncovered genome. The last
	// bucket collects everything at or above len(Hist)-1.
	Hist []int64
}

// SummarizeCoverage scans an accumulator. maxBucket sizes the histogram
// (default 64 when <= 0). A tile whose write counter is zero still holds
// genome.New's zeros (genome.Writes), so its positions count as
// uncovered without a read of the planes: the scan costs the tiles the
// reads wrote.
func SummarizeCoverage(acc genome.Accumulator, maxBucket int) CoverageStats {
	if maxBucket <= 0 {
		maxBucket = 64
	}
	st := CoverageStats{Hist: make([]int64, maxBucket+1)}
	// QC runs after mapping has quiesced. A NORM view hands over its five
	// planes, summed here in Total's channel order.
	fz, err := genome.Freeze(acc)
	if err != nil {
		return st
	}
	planes, norm := fz.PlaneWindow(0, fz.Len())
	writes := genome.Writes(acc, nil)
	// Depths are produced a block at a time so that the tally is a loop
	// with no call in it and keeps its state in registers. A block lies
	// within one tile: its length divides genome.TileSize.
	var sum float64
	var b1, b4, b10, uncovered int
	var block [512]float64
	for lo, n := 0, fz.Len(); lo < n; lo += len(block) {
		depths := block[:min(len(block), n-lo)]
		st.Positions += len(depths)
		if writes[lo/genome.TileSize] == 0 {
			uncovered += len(depths)
			continue
		}
		if norm {
			pA, pC, pG, pT, pGap := planes[dna.A][lo:], planes[dna.C][lo:], planes[dna.G][lo:], planes[dna.T][lo:], planes[dna.ChGap][lo:]
			for i := range depths {
				depths[i] = 0 + float64(pA[i]) + float64(pC[i]) + float64(pG[i]) + float64(pT[i]) + float64(pGap[i])
			}
		} else {
			for i := range depths {
				depths[i] = fz.Total(lo + i)
			}
		}
		for _, d := range depths {
			if d == 0 {
				uncovered++ // nothing to add, compare or round
				continue
			}
			sum += d
			if d > st.MaxDepth {
				st.MaxDepth = d
			}
			if d >= 1 {
				b1++
			}
			if d >= 4 {
				b4++
			}
			if d >= 10 {
				b10++
			}
			// Nearest-integer bucketing (see Hist doc): posterior depth
			// is fractional, and int(d) would misfile depth 0.9 as "0x".
			bucket := int(math.Round(d))
			if bucket > maxBucket {
				bucket = maxBucket
			}
			st.Hist[bucket]++
		}
	}
	st.Hist[0] += int64(uncovered)
	if st.Positions > 0 {
		st.MeanDepth = sum / float64(st.Positions)
		st.Breadth1 = float64(b1) / float64(st.Positions)
		st.Breadth4 = float64(b4) / float64(st.Positions)
		st.Breadth10 = float64(b10) / float64(st.Positions)
	}
	return st
}

// WriteText renders the coverage summary.
func (st CoverageStats) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "positions:   %d\n", st.Positions)
	fmt.Fprintf(bw, "mean depth:  %.2fx (max %.1fx)\n", st.MeanDepth, st.MaxDepth)
	fmt.Fprintf(bw, "breadth:     %.1f%% >=1x, %.1f%% >=4x, %.1f%% >=10x\n",
		100*st.Breadth1, 100*st.Breadth4, 100*st.Breadth10)
	return bw.Flush()
}
