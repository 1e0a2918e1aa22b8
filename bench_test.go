package gnumap_test

// Benchmark harness: one benchmark (family) per table and figure of the
// paper's evaluation (§VII), plus the engine ablations of DESIGN.md §5
// (the accumulation-strategy ablation is a genome-level micro-benchmark
// in internal/genome). Each is a thin wrapper over the
// internal/experiments function that cmd/snpbench prints, so it runs the
// library's Pipeline (RunClusterStreamReport for Figure 4). A benchmark
// named after one row of a table runs the whole table and reports that
// row: its wall clock as ns/op and reads/s, its accuracy as TP, FP and
// precision%. Run with:
//
//	go test -run '^$' -bench . -benchtime 1x .
//
// Shapes to expect (see EXPERIMENTS.md for recorded numbers):
//   - Table1: GNUMAP-SNP and the MAQ-like baseline find similar SNP
//     counts; the baseline is faster per CPU (the paper's GNUMAP time
//     advantage came from 30-node parallelism, reproduced in Fig4/Fig5).
//   - Table2/Table3: NORM > CHARDISC > CENTDISC in memory; CENTDISC
//     collapses in precision.
//   - Fig4: read-split outscales genome-split.
//   - Fig5: near-linear scaling for all three memory modes.
//
// The Fig4 and Fig5 ladders stop at experiments.Cores().

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gnumap"
	"gnumap/internal/experiments"
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

// row is what a benchmark reports of one Table I or ablation row.
type row struct {
	wall      time.Duration
	tp, fp    int
	precision float64
}

// benchRow runs table b.N times and reports its row called name.
func benchRow(b *testing.B, table func(*experiments.Dataset) (map[string]row, error), name string) {
	ds := benchDataset(b)
	var wall time.Duration
	var r row
	for i := 0; i < b.N; i++ {
		rows, err := table(ds)
		if err != nil {
			b.Fatal(err)
		}
		var ok bool
		if r, ok = rows[name]; !ok {
			b.Fatalf("no row %q", name)
		}
		wall += r.wall
	}
	b.ReportMetric(float64(wall.Nanoseconds())/float64(b.N), "ns/op")
	b.ReportMetric(float64(len(ds.Reads))*float64(b.N)/wall.Seconds(), "reads/s")
	b.ReportMetric(float64(r.tp), "TP")
	b.ReportMetric(float64(r.fp), "FP")
	b.ReportMetric(100*r.precision, "precision%")
}

// --- Table I -------------------------------------------------------------

// table1 is Table I by program, GNUMAP-SNP on GOMAXPROCS workers.
func table1(ds *experiments.Dataset) (map[string]row, error) {
	rows, err := experiments.Table1(ds, 0)
	byName := map[string]row{}
	for _, r := range rows {
		byName[r.Program] = row{r.Wall, r.TP, r.FP, r.Precision}
	}
	return byName, err
}

func BenchmarkTable1_GNUMAP(b *testing.B) { benchRow(b, table1, "GNUMAP-SNP") }
func BenchmarkTable1_MAQ(b *testing.B)    { benchRow(b, table1, "MAQ-like") }

// --- Table II ------------------------------------------------------------

func BenchmarkTable2_MemoryFootprint(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = experiments.Table2(); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.BytesPerBase, "bytes/base-"+r.Mode.String())
	}
}

// --- Table III -----------------------------------------------------------

func BenchmarkTable3(b *testing.B) {
	ds := benchDataset(b)
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = experiments.Table3(ds, 0); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		mode := r.Mode.String()
		b.ReportMetric(float64(r.TP), "TP-"+mode)
		b.ReportMetric(float64(r.FP), "FP-"+mode)
		b.ReportMetric(100*r.Precision, "precision%-"+mode)
		b.ReportMetric(float64(r.MemBytes)/float64(len(ds.Reference[0].Seq)), "bytes/base-"+mode)
	}
}

// --- Figure 4 ------------------------------------------------------------

func BenchmarkFig4_ReadSplit(b *testing.B)   { benchFig4(b, gnumap.ReadSplit) }
func BenchmarkFig4_GenomeSplit(b *testing.B) { benchFig4(b, gnumap.GenomeSplit) }

// benchFig4 runs Figure 4's ladder (both modes, up to 4 nodes) b.N times
// and reports one mode's rate at each node count.
func benchFig4(b *testing.B, split gnumap.SplitMode) {
	ds := benchDataset(b)
	var points []experiments.Fig4Point
	for i := 0; i < b.N; i++ {
		var err error
		if points, err = experiments.Fig4(ds, 4, gnumap.Channels); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Mode == split.String() {
			b.ReportMetric(p.Rate, fmt.Sprintf("reads/s-nodes=%d", p.Nodes))
		}
	}
}

// --- Figure 5 ------------------------------------------------------------

func BenchmarkFig5(b *testing.B) {
	ds := benchDataset(b)
	var points []experiments.Fig5Point
	for i := 0; i < b.N; i++ {
		var err error
		if points, err = experiments.Fig5(ds, 4); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Rate, fmt.Sprintf("reads/s-%s-workers=%d", p.Mode, p.Workers))
	}
}

// --- Ablations (DESIGN.md §5) ---------------------------------------------

// ablations is the ablation table by variant, on GOMAXPROCS workers.
func ablations(ds *experiments.Dataset) (map[string]row, error) {
	rows, err := experiments.Ablations(ds, 0)
	byName := map[string]row{}
	for _, r := range rows {
		byName[r.Variant] = row{r.Wall, r.TP, r.FP, r.Precision}
	}
	return byName, err
}

func BenchmarkAblation_FullEngine(b *testing.B)  { benchRow(b, ablations, "full-engine") }
func BenchmarkAblation_ViterbiOnly(b *testing.B) { benchRow(b, ablations, "viterbi-only") }
func BenchmarkAblation_BestHitOnly(b *testing.B) { benchRow(b, ablations, "best-hit-only") }
func BenchmarkAblation_PWMEmission(b *testing.B) { benchRow(b, ablations, "called-base-emission") }

// BenchmarkAblation_NaiveCaller measures calling by plurality vote (the
// LRT with its significance filter off) instead of the LRT, the paper's
// criticism of existing callers: compare its FP with FullEngine's.
func BenchmarkAblation_NaiveCaller(b *testing.B) { benchRow(b, ablations, "naive-caller") }
