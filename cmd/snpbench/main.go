// Command snpbench regenerates the paper's evaluation tables and
// figures (§VII) on simulated data and prints them in the paper's
// format. See DESIGN.md for the experiment index and EXPERIMENTS.md for
// recorded paper-vs-measured comparisons.
//
// Usage:
//
//	snpbench -exp all                        # everything, default sizes
//	snpbench -exp table1 -length 1000000     # Table I at 1 Mbp
//	snpbench -exp fig4 -maxnodes 8 -tcp      # Figure 4 over loopback TCP
//	snpbench -exp ablations                  # design-choice ablations
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"gnumap/internal/cluster"
	"gnumap/internal/experiments"
	"gnumap/internal/genome"
	"gnumap/internal/obs"
	"gnumap/internal/phmm"
	"gnumap/internal/snp"
)

// experimentNames is every name -exp accepts, in the order "all" runs
// them.
var experimentNames = []string{"table1", "table2", "table3", "fig4", "fig5", "ablations", "sweep"}

// parseExperiments resolves a comma-separated -exp value to the set of
// experiments to run; any name outside experimentNames and "all" is an
// error, whatever else the list holds.
func parseExperiments(list string) (map[string]bool, error) {
	wants := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		e = strings.TrimSpace(e)
		switch {
		case e == "all":
			for _, name := range experimentNames {
				wants[name] = true
			}
		case slices.Contains(experimentNames, e):
			wants[e] = true
		default:
			return nil, fmt.Errorf("unknown experiment %q (want %s or all)", e, strings.Join(experimentNames, ", "))
		}
	}
	return wants, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("snpbench: ")
	var (
		exp        = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experimentNames, ", ")+", all")
		length     = flag.Int("length", 400_000, "simulated genome length")
		snps       = flag.Int("snps", 0, "planted SNP count (default: paper density, length/10500)")
		coverage   = flag.Float64("coverage", 12, "read coverage")
		seed       = flag.Int64("seed", 1, "random seed")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "shared-memory workers (table1/table3/ablations)")
		maxNodes   = flag.Int("maxnodes", 4, "maximum node count (fig4; never above the host's cores)")
		maxWorkers = flag.Int("maxworkers", runtime.GOMAXPROCS(0), "maximum worker count (fig5; never above the host's cores)")
		tcp        = flag.Bool("tcp", false, "use loopback TCP between simulated nodes (fig4)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		profileDir = flag.String("profile", "", "write DIR/cpu.pprof for the whole run and DIR/heap.pprof, the live heap at exit")
	)
	flag.Parse()
	wants, err := parseExperiments(*exp)
	if err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *profileDir != "" {
		stop, err := obs.StartProfiles(*profileDir)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				log.Printf("profile: %v", err)
			}
		}()
	}

	// Every timing below is a wall clock on this host: say which host.
	fmt.Printf("host: %d cores, GOMAXPROCS=%d, phmm kernel %s, prescreen kernel %s, %s/%s, revision %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), phmm.BatchKernel(), snp.VectorKernel(),
		runtime.GOOS, runtime.GOARCH, revision())

	var ds *experiments.Dataset
	if len(wants) > 1 || !wants["table2"] { // Table II alone needs no reads
		ds, err = experiments.MakeDataset(experiments.DataConfig{
			GenomeLength: *length,
			SNPCount:     *snps,
			Coverage:     *coverage,
			Seed:         *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dataset: %d bp genome, %d planted SNPs, %d reads (%gx)\n",
			*length, len(ds.Truth), len(ds.Reads), *coverage)
	}
	fmt.Println()

	if wants["table1"] {
		runTable1(ds, *workers)
	}
	if wants["table2"] {
		runTable2()
	}
	if wants["table3"] {
		runTable3(ds, *workers)
	}
	if wants["fig4"] {
		transport := cluster.Channels
		if *tcp {
			transport = cluster.TCP
		}
		runFig4(ds, *maxNodes, transport)
	}
	if wants["fig5"] {
		runFig5(ds, *maxWorkers)
	}
	if wants["ablations"] {
		runAblations(ds, *workers)
	}
	if wants["sweep"] {
		runSweep(ds, *workers)
	}
}

// revision is the git commit the binary was built from (go build stamps
// it; go run and builds outside a checkout do not).
func revision() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision" && len(s.Value) >= 12:
				rev = s.Value[:12]
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func runTable1(ds *experiments.Dataset, workers int) {
	fmt.Println("TABLE I — Experimental results for simulated data")
	rows, err := experiments.Table1(ds, workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %10s %7s %7s %7s %10s\n", "Program", "Time", "TP", "FP", "FN", "Precision")
	for _, r := range rows {
		fmt.Printf("%-12s %10s %7d %7d %7d %9.1f%%\n",
			r.Program, r.Wall.Round(msRound(r.Wall)), r.TP, r.FP, r.FN, 100*r.Precision)
	}
	fmt.Println()
}

func runTable2() {
	fmt.Println("TABLE II — Memory usage for optimizations (accumulator state)")
	rows, err := experiments.Table2()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %12s %12s %12s\n", "optimization", "bytes/base", "chrX(155Mb)", "human(3.1Gb)")
	for _, r := range rows {
		fmt.Printf("%-12s %12.1f %12s %12s\n",
			r.Mode, r.BytesPerBase, human(r.ChrXBytes), human(r.HumanBytes))
	}
	fmt.Println()
}

func runTable3(ds *experiments.Dataset, workers int) {
	fmt.Println("TABLE III — Memory, wall clock, and accuracy per optimization")
	rows, err := experiments.Table3(ds, workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %12s %10s %7s %7s %10s\n", "Optimization", "MEM", "WT", "TP", "FP", "Precision")
	for _, r := range rows {
		fmt.Printf("%-12s %12s %10s %7d %7d %9.1f%%\n",
			r.Mode, human(r.MemBytes), r.Wall.Round(msRound(r.Wall)), r.TP, r.FP, 100*r.Precision)
	}
	fmt.Println()
}

func runFig4(ds *experiments.Dataset, maxNodes int, transport cluster.TransportKind) {
	fmt.Printf("FIGURE 4 — Sequence processing rate per MPI mode (%s transport)\n", transport)
	points, err := experiments.Fig4(ds, maxNodes, transport)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %-14s %14s %10s\n", "nodes", "mode", "reads/s", "speedup")
	base := map[string]float64{}
	for _, p := range points {
		if p.Nodes == 1 {
			base[p.Mode] = p.Rate
		}
		fmt.Printf("%-6d %-14s %14.0f %9.2fx\n", p.Nodes, p.Mode, p.Rate, p.Rate/base[p.Mode])
	}
	fmt.Printf("(measured wall clock, speedup vs 1 node; ladder stops at this host's %d cores)\n\n", experiments.Cores())
}

func runFig5(ds *experiments.Dataset, maxWorkers int) {
	fmt.Println("FIGURE 5 — Sequences/second per processor count and memory mode")
	points, err := experiments.Fig5(ds, maxWorkers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %-10s %14s %10s\n", "workers", "mode", "reads/s", "speedup")
	base := map[genome.Mode]float64{}
	for _, p := range points {
		if p.Workers == 1 {
			base[p.Mode] = p.Rate
		}
		fmt.Printf("%-8d %-10s %14.0f %9.2fx\n", p.Workers, p.Mode, p.Rate, p.Rate/base[p.Mode])
	}
	fmt.Printf("(measured wall clock, speedup vs 1 worker; ladder stops at this host's %d cores)\n\n", experiments.Cores())
}

func runAblations(ds *experiments.Dataset, workers int) {
	fmt.Println("ABLATIONS — engine design choices (DESIGN.md §5)")
	rows, err := experiments.Ablations(ds, workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-20s %7s %7s %10s %10s\n", "variant", "TP", "FP", "Precision", "Time")
	for _, r := range rows {
		fmt.Printf("%-20s %7d %7d %9.1f%% %10s\n",
			r.Variant, r.TP, r.FP, 100*r.Precision, r.Wall.Round(msRound(r.Wall)))
	}
	fmt.Println()
}

func runSweep(ds *experiments.Dataset, workers int) {
	fmt.Println("SWEEP — significance cutoff vs accuracy (fixed α/5 cutoff and BH FDR)")
	rows, err := experiments.CutoffSweep(ds, workers, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %-8s %7s %7s %11s %12s\n", "alpha", "control", "TP", "FP", "precision", "sensitivity")
	for _, r := range rows {
		control := "fixed"
		if r.FDR {
			control = "BH-FDR"
		}
		fmt.Printf("%-8g %-8s %7d %7d %10.1f%% %11.1f%%\n",
			r.Alpha, control, r.TP, r.FP, 100*r.Precision, 100*r.Sensitivity)
	}
	fmt.Println()
}

// human renders bytes in the paper's "4.76g" style.
func human(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fg", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fm", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fk", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%db", b)
	}
}

// msRound picks a display rounding that keeps 3+ significant digits.
func msRound(d time.Duration) time.Duration {
	switch {
	case d >= time.Minute:
		return time.Second
	case d >= time.Second:
		return 10 * time.Millisecond
	default:
		return time.Millisecond
	}
}
