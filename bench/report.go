package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"gnumap"
	"gnumap/internal/snp"
)

// stamp is the provenance every result carries: where and on what it
// was measured.
type stamp struct {
	Host       string `json:"host"`
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Threads    int    `json:"threads_n"`
	// Confined lists the CPUs the one-worker runs take in turn; empty
	// where they are left to the scheduler.
	Confined  []int  `json:"confined_cpus"`
	GoVersion string `json:"go"`
	GOARCH    string `json:"goarch"`
	// PrescreenKernel is snp.VectorKernel(). PhmmBatchKernel is the
	// same value: internal/phmm exports no name for its dispatch, but
	// it gates its AVX2 wavefront kernel on the same CPUID+XGETBV test.
	PrescreenKernel string `json:"prescreen_kernel"`
	PhmmBatchKernel string `json:"phmm_batch_kernel"`
	PhmmBatchWidth  int    `json:"phmm_batch_width"`
	LLC             string `json:"llc"`
	Git             string `json:"git"`
	Seed            int64  `json:"seed"`
	Smoke           bool   `json:"smoke,omitempty"`
	// Datasets maps workload → generated file → SHA-256.
	Datasets map[string]map[string]string `json:"datasets"`
}

func newStamp(o options, sessions []*session) stamp {
	host, _ := os.Hostname() // an empty host name is still a stamp
	st := stamp{
		Host: host, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Threads: benchThreads(), Confined: allowedCPUs(),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		PrescreenKernel: snp.VectorKernel(), PhmmBatchKernel: snp.VectorKernel(), PhmmBatchWidth: gnumap.DefaultPhmmBatch,
		LLC: lastLevelCache(), Git: gitRevision(o.root), Seed: o.seed, Smoke: o.smoke,
		Datasets: map[string]map[string]string{},
	}
	for _, s := range sessions {
		st.Datasets[s.w.Name] = s.d.Digests
	}
	return st
}

func printStamp(w io.Writer, st stamp) {
	line, err := json.Marshal(st)
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	fmt.Fprintln(w, "stamp", string(line))
}

// printFindings prints a workload's failed checks and flagged findings.
func printFindings(w io.Writer, s *session) {
	for _, f := range s.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	for _, n := range s.notes {
		fmt.Fprintln(w, "FLAG:", n)
	}
}

// lastLevelCache reads the highest-level cache of cpu0 from sysfs,
// e.g. "L3 32768K"; "unknown" where sysfs has none.
func lastLevelCache() string {
	best, bestLevel := "unknown", ""
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*") // no match: "unknown"
	for _, d := range dirs {
		level, err1 := os.ReadFile(filepath.Join(d, "level"))
		size, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		if l := strings.TrimSpace(string(level)); l >= bestLevel {
			bestLevel, best = l, "L"+l+" "+strings.TrimSpace(string(size))
		}
	}
	return best
}

// gitRevision is the checkout's HEAD, or "unknown" outside a git
// repository (the benchmark driver runs from a plain copy).
func gitRevision(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printSeries prints a workload's raw samples, one line per series:
// n, min, best3, median, max.
func printSeries(w io.Writer, s *session) {
	rows := []struct {
		name string
		v    []float64
	}{
		{"pass_wall_s", s.passWalls()},
		{"cli_wall_s", s.cliWalls()},
		{"cli_cpu_s", s.cliCPUs()},
		{"peak_rss_mb", s.column(func(r rep) float64 { return r.RSSMB })},
		{"setup_run_s", s.setup},
		{"prepare_run_s", s.prep},
		{"snp_f1", s.f1},
	}
	for _, r := range rows {
		if len(r.v) == 0 {
			continue
		}
		x := summarise(r.v)
		fmt.Fprintf(w, "%-13s %-14s n=%-3d min=%-10.4f best3=%-10.4f median=%-10.4f max=%-10.4f\n",
			s.w.Name, r.name, x.N, x.Min, x.Best3, x.Median, x.Max)
	}
}

// printMetrics prints one workload's metrics by name with unit.
func printMetrics(w io.Writer, workload string, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-13s %-32s %14.6g %s\n", workload, d.Name, values[d.Name], d.Unit)
	}
}
