// Package experiments regenerates every table and figure of the
// paper's evaluation section (§VII) on simulated data. Each experiment
// returns structured rows; cmd/snpbench renders them as the paper's
// tables, and the repository-root benchmarks wrap them in testing.B.
//
// Experiment-to-paper map:
//
//	Table1 — §VII-A Table I:   GNUMAP-SNP vs the MAQ-like baseline
//	                           (time, TP, FP, FN, precision)
//	Table2 — §VII-B Table II:  accumulator memory per layout,
//	                           extrapolated to chrX (155 Mbp) and the
//	                           human genome (3.1 Gbp)
//	Table3 — §VII-B Table III: memory, wall clock, and accuracy per
//	                           memory layout on one dataset
//	Fig4   — §VI     Figure 4: sequences/second vs node count for the
//	                           read-split ("shared memory") and
//	                           genome-split ("spread memory") modes
//	Fig5   — §VII-B Figure 5:  sequences/second vs processor count per
//	                           memory layout
package experiments

import (
	"fmt"
	"runtime"
	"time"

	"gnumap"
	"gnumap/internal/core"
	"gnumap/internal/genome"
	"gnumap/internal/snp"
)

// Dataset bundles one simulated experiment input.
type Dataset = gnumap.Dataset

// DataConfig sizes the simulated dataset shared by Table I, Table III,
// Figure 4, and Figure 5. Zero values scale the paper's setup down to
// laptop size: the paper used a 153 Mbp chromosome with 14,501 SNPs
// (1 per ~10.5 kbp) at 12x coverage of 62-bp reads.
type DataConfig struct {
	GenomeLength int     // default 400_000
	SNPCount     int     // default GenomeLength/10_500
	Coverage     float64 // default 12 (SimulateDataset's)
	ReadLength   int     // default 62 (SimulateDataset's)
	Seed         int64   // default 1
}

func (c DataConfig) withDefaults() DataConfig {
	if c.GenomeLength == 0 {
		c.GenomeLength = 400_000
	}
	if c.SNPCount == 0 {
		c.SNPCount = c.GenomeLength / 10_500
		if c.SNPCount < 1 {
			c.SNPCount = 1
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// MakeDataset builds the simulated genome/catalog/reads, with repeat
// structure matching the paper's emphasis on repeat regions and the
// paper's Solexa/Illumina error profile (noticeably degraded 3' ends).
func MakeDataset(cfg DataConfig) (*Dataset, error) {
	cfg = cfg.withDefaults()
	return gnumap.SimulateDataset(gnumap.SimConfig{
		GenomeLength:            cfg.GenomeLength,
		TandemRepeatFraction:    0.03,
		DispersedRepeatFraction: 0.08,
		SNPCount:                cfg.SNPCount,
		ReadLength:              cfg.ReadLength,
		Coverage:                cfg.Coverage,
		ErrStart:                0.004,
		ErrEnd:                  0.04,
		Seed:                    cfg.Seed,
	})
}

// run is one single-process GNUMAP-SNP run of ds under opts, the program
// gnumap-snp runs: NewPipeline, MapReads, Call. It returns the pipeline
// (for its memory accounting), the calls' accuracy, and the wall clock
// of the whole run.
func run(ds *Dataset, opts gnumap.Options) (*gnumap.Pipeline, snp.Metrics, time.Duration, error) {
	start := time.Now()
	p, err := gnumap.NewPipeline(ds.Reference, opts)
	if err != nil {
		return nil, snp.Metrics{}, 0, err
	}
	if _, err := p.MapReads(ds.Reads); err != nil {
		return nil, snp.Metrics{}, 0, err
	}
	calls, _, err := p.Call()
	if err != nil {
		return nil, snp.Metrics{}, 0, err
	}
	return p, snp.Evaluate(calls, ds.Truth), time.Since(start), nil
}

// Table1Row is one program's line of Table I.
type Table1Row struct {
	Program    string
	Wall       time.Duration
	TP, FP, FN int
	Precision  float64
}

// Table1 runs GNUMAP-SNP (parallel, as in the paper's cluster run) and
// the two comparator baselines (single worker, as in the paper's
// single-processor MAQ run) on the same dataset. The paper could not
// get SOAPsnp to emit any calls; our SOAPsnp-like Bayesian caller works
// and is reported as a third row for completeness.
func Table1(ds *Dataset, gnumapWorkers int) ([]Table1Row, error) {
	if gnumapWorkers <= 0 {
		gnumapWorkers = 0 // engine default (GOMAXPROCS)
	}
	var rows []Table1Row
	for _, cfg := range []gnumap.BaselineConfig{
		{Workers: 1, Consensus: gnumap.MAQConsensus},
		{Workers: 1, Consensus: gnumap.SoapConsensus},
	} {
		start := time.Now()
		res, err := gnumap.RunBaseline(ds.Reference, ds.Reads, cfg)
		if err != nil {
			return nil, err
		}
		m := snp.Evaluate(res.Calls, ds.Truth)
		rows = append(rows, Table1Row{
			Program: cfg.Consensus.String() + "-like", Wall: time.Since(start),
			TP: m.TP, FP: m.FP, FN: m.FN, Precision: m.Precision(),
		})
	}
	_, m, wall, err := run(ds, gnumap.Options{Engine: gnumap.EngineConfig{Workers: gnumapWorkers}})
	if err != nil {
		return nil, err
	}
	return append(rows, Table1Row{
		Program: "GNUMAP-SNP", Wall: wall,
		TP: m.TP, FP: m.FP, FN: m.FN, Precision: m.Precision(),
	}), nil
}

// Table2Row is one memory layout's line of Table II.
type Table2Row struct {
	Mode         genome.Mode
	BytesPerBase float64
	// ChrX and Human extrapolate the accumulator to the paper's
	// genome sizes (155 Mbp and 3.1 Gbp).
	ChrXBytes, HumanBytes int64
}

// Paper genome sizes for the Table II extrapolation.
const (
	chrXBases  = 155_000_000
	humanBases = 3_100_000_000
)

// Table2 measures per-base accumulator memory for each layout and
// extrapolates to the paper's genome sizes.
func Table2() ([]Table2Row, error) {
	const probe = 1_000_000
	var rows []Table2Row
	for _, mode := range []genome.Mode{genome.Norm, genome.CharDisc, genome.CentDisc} {
		acc, err := genome.New(mode, probe)
		if err != nil {
			return nil, err
		}
		perBase := float64(acc.MemoryBytes()) / probe
		rows = append(rows, Table2Row{
			Mode:         mode,
			BytesPerBase: perBase,
			ChrXBytes:    int64(perBase * chrXBases),
			HumanBytes:   int64(perBase * humanBases),
		})
	}
	return rows, nil
}

// Table3Row is one memory layout's line of Table III.
type Table3Row struct {
	Mode      genome.Mode
	MemBytes  int64
	Wall      time.Duration
	TP, FP    int
	Precision float64
}

// Table3 runs the full pipeline once per memory layout on the dataset.
func Table3(ds *Dataset, workers int) ([]Table3Row, error) {
	var rows []Table3Row
	for _, mode := range []genome.Mode{genome.Norm, genome.CharDisc, genome.CentDisc} {
		p, m, wall, err := run(ds, gnumap.Options{Engine: gnumap.EngineConfig{Workers: workers}, Memory: mode})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Mode:      mode,
			MemBytes:  p.AccumulatorMemoryBytes(),
			Wall:      wall,
			TP:        m.TP,
			FP:        m.FP,
			Precision: m.Precision(),
		})
	}
	return rows, nil
}

// Cores is the parallelism a measurement can really have here: the
// host's CPUs, or GOMAXPROCS when that is set lower. Fig4 and Fig5 stop
// their ladders at it — nodes or workers beyond it would timeshare, and
// the row would report scheduling, not scaling.
func Cores() int {
	return min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// Fig4Point is one measurement of Figure 4.
type Fig4Point struct {
	Nodes int
	// Mode is "read-split" (the paper's "shared memory" series) or
	// "genome-split" (the paper's "spread memory" series).
	Mode string
	// Rate is reads/second of the run, wall clock.
	Rate float64
}

// Fig4 measures sequence processing rate against node count for both
// distributed modes on an in-process cluster, for 1..min(maxNodes,
// Cores()) nodes. Each run is what gnumap-snp -nodes N -split S runs
// (RunClusterStreamReport, one mapping worker per node, as with MPI
// ranks): the index build, the mapping and the calls are all timed.
func Fig4(ds *Dataset, maxNodes int, transport gnumap.Transport) ([]Fig4Point, error) {
	if maxNodes <= 0 {
		maxNodes = 4
	}
	maxNodes = min(maxNodes, Cores())
	opts := gnumap.Options{Engine: gnumap.EngineConfig{Workers: 1}}
	var points []Fig4Point
	for nodes := 1; nodes <= maxNodes; nodes++ {
		for _, split := range []gnumap.SplitMode{gnumap.ReadSplit, gnumap.GenomeSplit} {
			start := time.Now()
			if _, _, _, err := gnumap.RunClusterStreamReport(nodes, transport, split, ds.Reference, gnumap.SliceReadSource(ds.Reads), opts); err != nil {
				return nil, fmt.Errorf("fig4 %s nodes=%d: %w", split, nodes, err)
			}
			points = append(points, Fig4Point{
				Nodes: nodes, Mode: split.String(),
				Rate: float64(len(ds.Reads)) / time.Since(start).Seconds(),
			})
		}
	}
	return points, nil
}

// Fig5Point is one measurement of Figure 5.
type Fig5Point struct {
	Workers int
	Mode    genome.Mode
	// Rate is reads/second of the run, wall clock.
	Rate float64
}

// Fig5 measures shared-memory throughput against worker count for each
// memory layout, for 1..min(maxWorkers, Cores()) workers.
func Fig5(ds *Dataset, maxWorkers int) ([]Fig5Point, error) {
	if maxWorkers <= 0 {
		maxWorkers = 4
	}
	maxWorkers = min(maxWorkers, Cores())
	var points []Fig5Point
	for workers := 1; workers <= maxWorkers; workers++ {
		for _, mode := range []genome.Mode{genome.Norm, genome.CharDisc, genome.CentDisc} {
			p, err := gnumap.NewPipeline(ds.Reference, gnumap.Options{Engine: gnumap.EngineConfig{Workers: workers}, Memory: mode})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := p.MapReads(ds.Reads); err != nil {
				return nil, err
			}
			points = append(points, Fig5Point{
				Workers: workers, Mode: mode,
				Rate: float64(len(ds.Reads)) / time.Since(start).Seconds(),
			})
		}
	}
	return points, nil
}

// AblationRow is one engine-variant's accuracy line.
type AblationRow struct {
	Variant   string
	TP, FP    int
	Precision float64
	Wall      time.Duration
}

// Ablations isolates the engine's design choices (DESIGN.md §5): the
// full engine, Viterbi-only accumulation, best-hit-only location
// assignment, called-base emission (the paper's quality-weighted PWM
// emission off), and a naive caller — the LRT with its significance
// filter off (Caller.Alpha < 0), which calls every position of depth
// >= 2 whose plurality channel is a base other than the reference: the
// "ad hoc cutoff without background comparison" calling style the paper
// criticizes.
func Ablations(ds *Dataset, workers int) ([]AblationRow, error) {
	variants := []struct {
		name string
		opts gnumap.Options
	}{
		{"full-engine", gnumap.Options{Engine: gnumap.EngineConfig{Workers: workers}}},
		{"viterbi-only", gnumap.Options{Engine: gnumap.EngineConfig{Workers: workers, ViterbiOnly: true}}},
		{"best-hit-only", gnumap.Options{Engine: gnumap.EngineConfig{Workers: workers, BestHitOnly: true}}},
		{"called-base-emission", gnumap.Options{Engine: gnumap.EngineConfig{Workers: workers, IgnoreQualities: true}}},
		{"naive-caller", gnumap.Options{Engine: gnumap.EngineConfig{Workers: workers}, Caller: gnumap.CallerConfig{Alpha: -1}}},
	}
	var rows []AblationRow
	for _, v := range variants {
		_, m, wall, err := run(ds, v.opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant: v.name, TP: m.TP, FP: m.FP,
			Precision: m.Precision(), Wall: wall,
		})
	}
	return rows, nil
}

// SweepRow is one operating point of the significance-cutoff sweep.
type SweepRow struct {
	// Alpha is the family-wise level; FDR marks Benjamini-Hochberg
	// control instead of the fixed α/5 cutoff.
	Alpha     float64
	FDR       bool
	TP, FP    int
	Precision float64
	// Sensitivity is TP over planted SNPs.
	Sensitivity float64
}

// CutoffSweep exercises the paper's headline usability claim — that the
// LRT gives researchers "straightforward SNP calling cutoffs based on a
// p-value cutoff or a false discovery control" — by mapping once and
// then calling at a range of α levels under both control styles. It is
// the one experiment that assembles its own engine: a Pipeline's
// caller is fixed at construction, and the sweep needs one mapping
// under several significance decisions.
func CutoffSweep(ds *Dataset, workers int, alphas []float64) ([]SweepRow, error) {
	if len(alphas) == 0 {
		alphas = []float64{0.001, 0.01, 0.05, 0.1, 0.25}
	}
	ref, err := genome.NewReference(ds.Reference)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(ref, core.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	acc, err := genome.New(genome.Norm, ref.Len())
	if err != nil {
		return nil, err
	}
	if _, err := eng.MapReads(ds.Reads, acc); err != nil {
		return nil, err
	}
	var rows []SweepRow
	for _, fdr := range []bool{false, true} {
		for _, alpha := range alphas {
			calls, _, err := snp.CallAll(ref, acc, snp.Config{Alpha: alpha, UseFDR: fdr})
			if err != nil {
				return nil, err
			}
			m := snp.Evaluate(calls, ds.Truth)
			rows = append(rows, SweepRow{
				Alpha: alpha, FDR: fdr,
				TP: m.TP, FP: m.FP,
				Precision:   m.Precision(),
				Sensitivity: m.Sensitivity(),
			})
		}
	}
	return rows, nil
}
