package gnumap

// Benchmark harness: one benchmark (family) per table and figure of the
// paper's evaluation (§VII), plus ablation benches for the design
// choices listed in DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// Shapes to expect (see EXPERIMENTS.md for recorded numbers):
//   - Table1: GNUMAP-SNP and the MAQ-like baseline find similar SNP
//     counts; the baseline is faster per CPU (the paper's GNUMAP time
//     advantage came from 30-node parallelism, reproduced in Fig4/Fig5).
//   - Table2/Table3: NORM > CHARDISC > CENTDISC in memory; CENTDISC
//     collapses in precision.
//   - Fig4: read-split outscales genome-split.
//   - Fig5: near-linear scaling for all three memory modes.

import (
	"fmt"
	"sync"
	"testing"

	"gnumap/internal/baseline"
	"gnumap/internal/cluster"
	"gnumap/internal/core"
	"gnumap/internal/experiments"
	"gnumap/internal/fastq"
	"gnumap/internal/genome"
	"gnumap/internal/snp"
)

// benchData is the shared dataset: built once, sized so a single
// mapping pass takes on the order of a second.
var (
	benchOnce sync.Once
	benchDS   *experiments.Dataset
	benchErr  error
)

func benchDataset(b *testing.B) *experiments.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchDS, benchErr = experiments.MakeDataset(experiments.DataConfig{
			GenomeLength: 120_000,
			Coverage:     8,
			Seed:         1,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS
}

// reportAccuracy attaches accuracy metrics to a benchmark run.
func reportAccuracy(b *testing.B, m snp.Metrics) {
	b.ReportMetric(float64(m.TP), "TP")
	b.ReportMetric(float64(m.FP), "FP")
	b.ReportMetric(100*m.Precision(), "precision%")
}

// --- Table I -------------------------------------------------------------

func BenchmarkTable1_GNUMAP(b *testing.B) {
	ds := benchDataset(b)
	var m snp.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(ds.Ref, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		acc, err := genome.New(genome.Norm, ds.Ref.Len())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.MapReads(ds.Reads, acc, 0); err != nil {
			b.Fatal(err)
		}
		calls, _, err := snp.CallAll(ds.Ref, acc, snp.Config{})
		if err != nil {
			b.Fatal(err)
		}
		m = snp.Evaluate(calls, ds.Truth)
	}
	b.StopTimer()
	reportAccuracy(b, m)
	b.ReportMetric(float64(len(ds.Reads))*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
}

func BenchmarkTable1_MAQ(b *testing.B) {
	ds := benchDataset(b)
	var m snp.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := baseline.Run(ds.Ref, ds.Reads, baseline.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		m = snp.Evaluate(res.Calls, ds.Truth)
	}
	b.StopTimer()
	reportAccuracy(b, m)
	b.ReportMetric(float64(len(ds.Reads))*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
}

// --- Table II ------------------------------------------------------------

func BenchmarkTable2_MemoryFootprint(b *testing.B) {
	for _, mode := range []genome.Mode{genome.Norm, genome.CharDisc, genome.CentDisc} {
		b.Run(mode.String(), func(b *testing.B) {
			const L = 1_000_000
			var acc genome.Accumulator
			var err error
			for i := 0; i < b.N; i++ {
				acc, err = genome.New(mode, L)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(acc.MemoryBytes())/L, "bytes/base")
		})
	}
}

// --- Table III -----------------------------------------------------------

func BenchmarkTable3(b *testing.B) {
	ds := benchDataset(b)
	for _, mode := range []genome.Mode{genome.Norm, genome.CharDisc, genome.CentDisc} {
		b.Run(mode.String(), func(b *testing.B) {
			var m snp.Metrics
			var mem int64
			for i := 0; i < b.N; i++ {
				eng, err := core.NewEngine(ds.Ref, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				acc, err := genome.New(mode, ds.Ref.Len())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.MapReads(ds.Reads, acc, 0); err != nil {
					b.Fatal(err)
				}
				calls, _, err := snp.CallAll(ds.Ref, acc, snp.Config{})
				if err != nil {
					b.Fatal(err)
				}
				m = snp.Evaluate(calls, ds.Truth)
				mem = acc.MemoryBytes()
			}
			b.StopTimer()
			reportAccuracy(b, m)
			b.ReportMetric(float64(mem)/float64(ds.Ref.Len()), "bytes/base")
		})
	}
}

// --- Figure 4 ------------------------------------------------------------

func BenchmarkFig4_ReadSplit(b *testing.B)   { benchFig4(b, true) }
func BenchmarkFig4_GenomeSplit(b *testing.B) { benchFig4(b, false) }

func benchFig4(b *testing.B, readSplit bool) {
	ds := benchDataset(b)
	for _, nodes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := cluster.Run(nodes, cluster.Channels, func(c *cluster.Comm) error {
					if !readSplit {
						_, _, _, _, err := core.RunGenomeSplit(c, ds.Ref, fastq.SliceSource(ds.Reads), genome.Norm, core.Config{Workers: 1})
						return err
					}
					eng, err := core.NewEngine(ds.Ref, core.Config{Workers: 1})
					if err != nil {
						return err
					}
					acc, err := genome.New(genome.Norm, ds.Ref.Len())
					if err != nil {
						return err
					}
					_, err = core.RunReadSplit(c, eng, acc, fastq.SliceSource(ds.Reads), nil)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(ds.Reads))*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
		})
	}
}

// --- Figure 5 ------------------------------------------------------------

func BenchmarkFig5(b *testing.B) {
	ds := benchDataset(b)
	for _, mode := range []genome.Mode{genome.Norm, genome.CharDisc, genome.CentDisc} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					eng, err := core.NewEngine(ds.Ref, core.Config{Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					acc, err := genome.New(mode, ds.Ref.Len())
					if err != nil {
						b.Fatal(err)
					}
					if _, err := eng.MapReads(ds.Reads, acc, 0); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(ds.Reads))*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
			})
		}
	}
}

// --- Ablations (DESIGN.md §5) ---------------------------------------------

// benchAblation runs one engine variant and reports accuracy.
func benchAblation(b *testing.B, cfg core.Config, naiveCaller bool) {
	ds := benchDataset(b)
	var m snp.Metrics
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(ds.Ref, cfg)
		if err != nil {
			b.Fatal(err)
		}
		acc, err := genome.New(genome.Norm, ds.Ref.Len())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.MapReads(ds.Reads, acc, 0); err != nil {
			b.Fatal(err)
		}
		var calls []snp.Call
		if naiveCaller {
			rows, err := experiments.Ablations(ds, 0)
			_ = rows
			if err != nil {
				b.Fatal(err)
			}
			// The naive caller is measured inside experiments.Ablations;
			// here we only time the mapping phase for parity.
			continue
		}
		calls, _, err = snp.CallAll(ds.Ref, acc, snp.Config{})
		if err != nil {
			b.Fatal(err)
		}
		m = snp.Evaluate(calls, ds.Truth)
	}
	b.StopTimer()
	reportAccuracy(b, m)
}

func BenchmarkAblation_FullEngine(b *testing.B) {
	benchAblation(b, core.Config{}, false)
}

func BenchmarkAblation_ViterbiOnly(b *testing.B) {
	benchAblation(b, core.Config{ViterbiOnly: true}, false)
}

func BenchmarkAblation_BestHitOnly(b *testing.B) {
	benchAblation(b, core.Config{BestHitOnly: true}, false)
}

func BenchmarkAblation_PWMEmission(b *testing.B) {
	benchAblation(b, core.Config{IgnoreQualities: true}, false)
}

// BenchmarkAblation_NaiveCaller measures calling with plurality voting
// instead of the LRT (the paper's criticism of existing callers).
func BenchmarkAblation_NaiveCaller(b *testing.B) {
	ds := benchDataset(b)
	eng, err := core.NewEngine(ds.Ref, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	acc, err := genome.New(genome.Norm, ds.Ref.Len())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.MapReads(ds.Reads, acc, 0); err != nil {
		b.Fatal(err)
	}
	var naive, lrtM snp.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveCalls := experiments.NaiveCalls(ds.Ref, acc)
		naive = snp.Evaluate(naiveCalls, ds.Truth)
		calls, _, err := snp.CallAll(ds.Ref, acc, snp.Config{})
		if err != nil {
			b.Fatal(err)
		}
		lrtM = snp.Evaluate(calls, ds.Truth)
	}
	b.StopTimer()
	b.ReportMetric(float64(naive.FP), "naiveFP")
	b.ReportMetric(float64(lrtM.FP), "lrtFP")
	b.ReportMetric(float64(naive.TP), "naiveTP")
	b.ReportMetric(float64(lrtM.TP), "lrtTP")
}

// --- Accumulation strategy ablation ---------------------------------------

// BenchmarkAblation_Accumulation compares online striped-lock
// accumulation against per-worker private accumulators merged at the
// end (the design alternative DESIGN.md §5 calls out).
func BenchmarkAblation_Accumulation(b *testing.B) {
	const L = 200_000
	const spans = 2_000
	zs := make([]genome.Vec, 62)
	for i := range zs {
		zs[i] = genome.Vec{0.9, 0.05, 0.03, 0.02, 0}
	}
	for _, strategy := range []string{"striped-online", "private-merge"} {
		b.Run(strategy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if strategy == "striped-online" {
					acc, err := genome.New(genome.Norm, L)
					if err != nil {
						b.Fatal(err)
					}
					var wg sync.WaitGroup
					for w := 0; w < 4; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							for s := 0; s < spans/4; s++ {
								acc.AddRange((s*977+w*131)%(L-70), zs, 1)
							}
						}(w)
					}
					wg.Wait()
				} else {
					merged, err := genome.New(genome.Norm, L)
					if err != nil {
						b.Fatal(err)
					}
					parts := make([]genome.Accumulator, 4)
					var wg sync.WaitGroup
					for w := 0; w < 4; w++ {
						parts[w], err = genome.New(genome.Norm, L)
						if err != nil {
							b.Fatal(err)
						}
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							for s := 0; s < spans/4; s++ {
								parts[w].AddRange((s*977+w*131)%(L-70), zs, 1)
							}
						}(w)
					}
					wg.Wait()
					for w := 0; w < 4; w++ {
						if err := merged.Merge(parts[w]); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}
