package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"gnumap"
)

// rep is what one fresh exec of gnumap-snp cost and produced.
type rep struct {
	// Wall is fork to exit; CPU (user+sys) and RSSMB are the process's
	// rusage; all three are taken by the launcher.
	Wall, CPU, RSSMB float64
	// Mapped and Total come from the CLI's own "mapped a/b reads" line.
	Mapped, Total int64
	VCF           []byte
}

// launchFlag, as the first argument, turns this binary into the
// launcher: see launch.
const launchFlag = "-launch"

// measurement is what the launcher reports about the process it ran.
type measurement struct {
	Wall  float64 `json:"wall_s"`
	CPU   float64 `json:"cpu_s"`
	RSSKB int64   `json:"maxrss_kb"`
}

// launch runs argv as a child, waits for it, and prints its wall time
// and rusage as one JSON line. Every gnumap-snp run goes through a
// launcher process because of how Linux accounts peak RSS: Go starts
// children with CLONE_VM, and at exec the kernel seeds the child's
// ru_maxrss with the high-water mark of the address space it is
// leaving — its parent's. Started straight from the benchmark process,
// whose own peak reaches hundreds of MiB (dataset generation, the
// in-process driver), every small run would report the benchmark's
// peak RSS instead of its own. A freshly started launcher has a peak
// of a few MiB, below any run's.
func launch(argv []string) error {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return err
	}
	wall := time.Since(t0).Seconds()
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return fmt.Errorf("no rusage for child")
	}
	return json.NewEncoder(os.Stdout).Encode(measurement{
		Wall: wall, CPU: tvSeconds(ru.Utime) + tvSeconds(ru.Stime), RSSKB: ru.Maxrss,
	})
}

// runCLI executes the binary once, through a launcher, writing the VCF
// to out. Any non-zero exit, unreadable output or missing status line
// is an error. out is removed first, so that a run which exits 0
// without writing its VCF fails instead of passing on the previous
// run's file.
func runCLI(bin string, args []string, out string) (rep, error) {
	self, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	if err := os.Remove(out); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return rep{}, err
	}
	cmd := exec.Command(self, append([]string{launchFlag, bin}, append(args, "-o", out)...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return rep{}, fmt.Errorf("%w: %s", err, lastLine(stderr.String()))
	}
	var m measurement
	if err := json.Unmarshal(stdout, &m); err != nil {
		return rep{}, fmt.Errorf("launcher output: %w", err)
	}
	r := rep{Wall: m.Wall, CPU: m.CPU, RSSMB: float64(m.RSSKB) / 1024} // Linux reports KiB
	found := false
	for _, line := range strings.Split(stderr.String(), "\n") {
		if _, err := fmt.Sscanf(line, "mapped %d/%d reads", &r.Mapped, &r.Total); err == nil {
			found = true
			break
		}
	}
	if !found {
		return r, fmt.Errorf("no \"mapped a/b reads\" line on stderr")
	}
	if r.VCF, err = os.ReadFile(out); err != nil {
		return r, err
	}
	return r, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// selfCPU is this process's user+sys time, for CPU spent inside a span
// of the in-process driver.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// vcfCall identifies one VCF record for set comparison: QUAL and INFO
// carry float sums whose last digits depend on accumulation order.
type vcfCall struct {
	Chrom    string
	Pos      int // 1-based, as written
	Ref, Alt string
}

// parseVCF returns the records of a VCF in file order.
func parseVCF(data []byte) ([]vcfCall, error) {
	var calls []vcfCall
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	header := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#CHROM") {
			header = true
		}
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Split(line, "\t")
		var c vcfCall
		if len(f) < 8 {
			return nil, fmt.Errorf("VCF record with %d fields: %q", len(f), line)
		}
		if _, err := fmt.Sscanf(f[1], "%d", &c.Pos); err != nil {
			return nil, fmt.Errorf("VCF POS %q: %w", f[1], err)
		}
		c.Chrom, c.Ref, c.Alt = f[0], f[3], f[4]
		calls = append(calls, c)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !header {
		return nil, fmt.Errorf("VCF has no #CHROM header line")
	}
	return calls, nil
}

// sameCalls reports whether two VCFs hold the same CHROM/POS/REF/ALT
// records in the same order.
func sameCalls(a, b []vcfCall) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// accuracy scores a VCF's records against the planted truth the way
// gnumap.Evaluate scores in-memory calls: a true positive is a record at
// a planted position with the planted alternate allele.
type accuracy struct{ TP, FP, FN int }

func (a accuracy) f1() float64 {
	if a.TP == 0 {
		return 0
	}
	return 2 * float64(a.TP) / float64(2*a.TP+a.FP+a.FN)
}

func score(calls []vcfCall, truth []gnumap.TruthSNP) accuracy {
	alt := make(map[int]string, len(truth))
	for _, s := range truth {
		alt[s.Pos+1] = s.Alt.String()
	}
	var a accuracy
	hit := make(map[int]bool, len(truth))
	for _, c := range calls {
		want, ok := alt[c.Pos]
		switch {
		case !ok || want != c.Alt:
			a.FP++
		case !hit[c.Pos]:
			hit[c.Pos] = true
			a.TP++
		}
	}
	a.FN = len(truth) - a.TP
	return a
}
