// Command bench is the repository's benchmark: FASTA+FASTQ in, VCF out,
// through the pipeline's public calls in-process, timed part by part,
// and through the real gnumap-snp binary, which every in-process pass
// must agree with; per-layer numbers come from a traced run. See
// README.md for the metric and workload definitions and BENCHMARK.json
// at the repository root for the contract the numbers are checked
// against.
//
// One workload, the way the benchmark driver calls it:
//
//	bash bench/run.sh --workload unique-w1 --seed 1 --seconds 38 --trace 0
//
// prints, as the last line of standard output, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
// Every workload, interleaved, with the full report:
//
//	bash bench/run.sh -all -seed 1        # one set
//	bash bench/run.sh -aa -seed 1         # two sets, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == launchFlag {
		if err := launch(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench launcher:", err)
			os.Exit(1)
		}
		return
	}
	var (
		root    = flag.String("root", "..", "repository root (run.sh passes it)")
		name    = flag.String("workload", "", "run one workload and print the driver's result line")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", runSeconds, "with -workload: how long to measure")
		trace   = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics from traced runs")
		all     = flag.Bool("all", false, "run every workload interleaved, 25 rounds, then the traced runs; print the full report")
		aa      = flag.Bool("aa", false, "run two complete sets back to back and compare them against the bounds; exit 1 on a breach")
		smoke   = flag.Bool("smoke", false, "shrink every workload to a 20 kbp reference (seconds, for checking the harness)")
		keep    = flag.Bool("keep", false, "keep the generated inputs and trace.json instead of removing the temp dir")
	)
	flag.Parse()
	if err := run(options{
		root: *root, workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		all: *all || *aa, aa: *aa, rounds: allRounds, smoke: *smoke, keep: *keep,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	root, workload string
	seed           int64
	seconds        float64
	trace          bool
	all, aa        bool
	rounds         int // with all: rounds per workload; allRounds, or fewer in tests
	smoke, keep    bool
	stdout         io.Writer // nil = os.Stdout; tests capture it
}

func run(o options) error {
	if o.stdout == nil {
		o.stdout = os.Stdout
	}
	if (o.workload == "") == !o.all {
		return fmt.Errorf("give exactly one of -workload NAME, -all, -aa")
	}
	build := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	bin, err := buildCLI(o.root, build)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	if o.keep {
		fmt.Fprintln(o.stdout, "keeping", dir)
	} else {
		defer os.RemoveAll(dir)
	}
	if o.all {
		return runAll(o, bin, dir)
	}
	return runOne(o, bin, dir)
}

// buildCLI compiles cmd/gnumap-snp from the checkout's source. The
// bench module replaces gnumap with the parent directory, so the build
// runs from here; with a warm build cache it is a sub-second no-op.
func buildCLI(root, build string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(build, "gnumap-snp"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "gnumap/cmd/gnumap-snp")
	cmd.Dir = filepath.Join(root, "bench")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build gnumap-snp: %v\n%s", err, out)
	}
	return bin, nil
}

// after is the deadline that many seconds from now.
func after(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// result is the driver's last-line object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return m
}

// runOne is the driver's mode: one workload, a closed loop of one
// process at a time for o.seconds, one result line.
func runOne(o options, bin, dir string) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.smoke {
		w = w.smoke()
	}
	s, err := newSession(w, o.seed, bin, dir)
	if err != nil {
		return err
	}
	printStamp(o.stdout, newStamp(o, []*session{s}))
	deadline := after(o.seconds)
	var res result
	if o.trace {
		values, err := s.traced(deadline)
		if err != nil {
			return err
		}
		printSeries(o.stdout, s)
		printMetrics(o.stdout, w.Name, perLayer, values)
		res.Metrics = withUnits(perLayer, values)
	} else {
		// A round is started while at least half of it is expected to fit
		// before the deadline, judging by the slowest round so far.
		var longest time.Duration
		for n := 0; time.Until(deadline) > longest/2; n++ {
			t0 := time.Now()
			if err := s.round(n); err != nil {
				return err
			}
			if d := time.Since(t0); d > longest {
				longest = d
			}
		}
		values := s.endToEnd()
		printSeries(o.stdout, s)
		printMetrics(o.stdout, w.Name, endToEnd, values)
		res.Metrics = withUnits(endToEnd, values)
	}
	if err := s.tr.dump(filepath.Join(dir, "trace.json")); err != nil {
		return err
	}
	printFindings(o.stdout, s)
	res.Attempted, res.Failed = s.attempted, s.failed
	res.Correct = s.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.stdout, string(line))
	return nil
}
