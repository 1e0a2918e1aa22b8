// Package cmd_test builds the shipping binaries and runs them
// end-to-end: readsim generates a dataset, gnumap-snp maps and calls
// it (single-process and simulated-cluster), and the outputs are
// checked against the truth table readsim wrote.
package cmd_test

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// buildTools compiles the binaries once into a temp dir.
func buildTools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping binary integration test")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"gnumap/cmd/readsim", "gnumap/cmd/gnumap-snp")
	cmd.Dir = ".."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIPipelineEndToEnd(t *testing.T) {
	bins := buildTools(t)
	data := t.TempDir()

	// 1. Generate a small dataset.
	out := run(t, filepath.Join(bins, "readsim"),
		"-out", data, "-length", "60000", "-snps", "6", "-coverage", "10", "-seed", "3")
	if !strings.Contains(out, "truth:") {
		t.Fatalf("readsim output unexpected:\n%s", out)
	}
	truth := parseTruth(t, filepath.Join(data, "truth.tsv"))
	if len(truth) != 6 {
		t.Fatalf("truth has %d SNPs", len(truth))
	}

	// 2. Map and call, single process, with SAM and pileup side outputs.
	vcfPath := filepath.Join(data, "calls.vcf")
	samPath := filepath.Join(data, "out.sam")
	puPath := filepath.Join(data, "pileup.tsv")
	profDir := filepath.Join(data, "prof")
	run(t, filepath.Join(bins, "gnumap-snp"),
		"-ref", filepath.Join(data, "reference.fa"),
		"-reads", filepath.Join(data, "reads.fq"),
		"-o", vcfPath, "-sam", samPath, "-pileup", puPath, "-workers", "2", "-profile", profDir)
	// A pprof profile is a gzip stream; an empty or unframed file is what
	// a profile stopped before it was flushed looks like.
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		if prof, err := os.ReadFile(filepath.Join(profDir, name)); err != nil || len(prof) < 64 || prof[0] != 0x1f || prof[1] != 0x8b {
			t.Errorf("-profile wrote %s with %d bytes (err %v), want a gzip-framed profile", name, len(prof), err)
		}
	}

	calls := parseVCFPositions(t, vcfPath)
	tp := 0
	for pos := range truth {
		if calls[pos] {
			tp++
		}
	}
	if tp < 5 {
		t.Errorf("CLI recovered %d/6 SNPs; calls=%v truth=%v", tp, calls, truth)
	}
	if fi, err := os.Stat(samPath); err != nil || fi.Size() == 0 {
		t.Errorf("SAM output missing: %v", err)
	}
	if fi, err := os.Stat(puPath); err != nil || fi.Size() == 0 {
		t.Errorf("pileup output missing: %v", err)
	}

	// 3. Same run on a 3-node simulated cluster, genome-split: the VCF
	// must contain the same positions. The run records metrics either way;
	// only -metrics-out prints them.
	vcf2 := filepath.Join(data, "calls_cluster.vcf")
	out = run(t, filepath.Join(bins, "gnumap-snp"),
		"-ref", filepath.Join(data, "reference.fa"),
		"-reads", filepath.Join(data, "reads.fq"),
		"-o", vcf2, "-nodes", "3", "-split", "genome")
	if strings.Contains(out, "rank snapshot(s)") {
		t.Errorf("genome-split run without -metrics-out printed a metrics summary:\n%s", out)
	}
	calls2 := parseVCFPositions(t, vcf2)
	if len(calls2) != len(calls) {
		t.Errorf("cluster run called %d positions, single-process %d", len(calls2), len(calls))
	}
	for pos := range calls {
		if !calls2[pos] {
			t.Errorf("cluster run missing call at %d", pos)
		}
	}
}

// TestCLIReadSplitIsThePipeline: read-split is the Pipeline's mapping
// step placed on N ranks, so what the pipeline offers afterwards does
// not depend on the placement — a checkpoint written on one placement
// resumes on another to the uninterrupted run's VCF bytes, and the
// side outputs of a 2-node run are the single-process files. -workers 1
// throughout, so accumulation order is fixed per rank.
func TestCLIReadSplitIsThePipeline(t *testing.T) {
	bins := buildTools(t)
	data := t.TempDir()
	run(t, filepath.Join(bins, "readsim"),
		"-out", data, "-length", "30000", "-snps", "4", "-coverage", "8", "-seed", "5")
	bin := filepath.Join(bins, "gnumap-snp")
	gnumap := func(tag string, extra ...string) (vcf []byte, stderr string) {
		t.Helper()
		out := filepath.Join(data, tag+".vcf")
		stderr = run(t, bin, append([]string{
			"-ref", filepath.Join(data, "reference.fa"), "-reads", filepath.Join(data, "reads.fq"),
			"-workers", "1", "-o", out}, extra...)...)
		vcf, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return vcf, stderr
	}
	one, two := []string{"-nodes", "1"}, []string{"-nodes", "2", "-split", "read"}
	sam1, pu1 := filepath.Join(data, "one.sam"), filepath.Join(data, "one.tsv")
	golden, _ := gnumap("golden", "-sam", sam1, "-pileup", pu1)
	if !strings.Contains(string(golden), "\tPASS\t") {
		t.Fatal("golden run called no SNPs; dataset too weak for an identity test")
	}

	// A run that completes leaves its last periodic checkpoint behind: a
	// mid-run state (watermark below the read count) on disk without any
	// signal timing. Resuming it on the other placement maps only the
	// rest, and must end in the golden bytes.
	for _, tc := range []struct {
		name        string
		write, read []string
	}{{"nodes1-to-nodes2", one, two}, {"nodes2-to-nodes1", two, one}} {
		ck := filepath.Join(data, tc.name+".ckpt")
		first, _ := gnumap(tc.name+".write", append([]string{"-checkpoint", ck, "-checkpoint-every", "1000"}, tc.write...)...)
		if string(first) != string(golden) {
			t.Errorf("%s: checkpointed run's VCF differs from the plain run's", tc.name)
		}
		got, stderr := gnumap(tc.name+".resume", append([]string{"-checkpoint", ck, "-resume"}, tc.read...)...)
		if !strings.Contains(stderr, "resuming from") || strings.Contains(stderr, ": 0 reads already mapped") {
			t.Errorf("%s: second run did not resume mid-run:\n%s", tc.name, stderr)
		}
		if string(got) != string(golden) {
			t.Errorf("%s: resumed VCF differs from the uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", tc.name, golden, got)
		}
	}

	// Side outputs from the folded accumulator (-pileup) and rank 0's
	// engine (-sam) on 2 nodes.
	sam2, pu2 := filepath.Join(data, "two.sam"), filepath.Join(data, "two.tsv")
	gnumap("two", append([]string{"-sam", sam2, "-pileup", pu2}, two...)...)
	a, err := os.ReadFile(sam1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(sam2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || string(a) != string(b) {
		t.Errorf("2-node -sam (%d bytes) is not the single-process file (%d bytes)", len(b), len(a))
	}
	comparePileups(t, pu1, pu2)
}

// comparePileups holds two -pileup files to the same rows with every
// mass column inside the tolerance the accumulator state tests use for
// float32 sums taken in a different order (1e-3·(1+x)), widened by the
// files' three printed decimals. A row only one file has is accepted
// when its depth sits on the writer's depth cutoff (2).
func comparePileups(t *testing.T, wantPath, gotPath string) {
	t.Helper()
	load := func(path string) map[string][]float64 {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rows := map[string][]float64{}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			f := strings.Split(line, "\t")
			if len(f) != 10 {
				t.Fatalf("%s: malformed pileup row %q", path, line)
			}
			var mass []float64
			for _, col := range f[3:9] { // total, A, C, G, T, gap
				x, err := strconv.ParseFloat(col, 64)
				if err != nil {
					t.Fatalf("%s: row %q: %v", path, line, err)
				}
				mass = append(mass, x)
			}
			rows[f[0]+":"+f[1]+":"+f[2]] = mass
		}
		return rows
	}
	want, got := load(wantPath), load(gotPath)
	if len(want) == 0 {
		t.Fatal("single-process pileup has no rows")
	}
	near := func(a, b float64) bool { return a-b <= 2e-3*(1+b) && b-a <= 2e-3*(1+b) }
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			if !near(w[0], 2) {
				t.Errorf("row %s (depth %v) missing from the 2-node pileup", key, w[0])
			}
			continue
		}
		for i := range w {
			if !near(g[i], w[i]) {
				t.Errorf("row %s column %d: %v on 2 nodes, %v in one process", key, i, g[i], w[i])
			}
		}
	}
	for key, g := range got {
		if _, ok := want[key]; !ok && !near(g[0], 2) {
			t.Errorf("row %s (depth %v) only in the 2-node pileup", key, g[0])
		}
	}
}

// parseTruth reads readsim's truth TSV into a set of 0-based positions.
func parseTruth(t *testing.T, path string) map[int]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		pos, err := strconv.Atoi(f[0])
		if err != nil {
			t.Fatalf("bad truth line %q: %v", line, err)
		}
		out[pos] = true
	}
	return out
}

// parseVCFPositions reads 0-based positions out of a VCF.
func parseVCFPositions(t *testing.T, path string) map[int]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		pos, err := strconv.Atoi(f[1])
		if err != nil {
			t.Fatalf("bad VCF line %q: %v", line, err)
		}
		out[pos-1] = true // VCF is 1-based
	}
	return out
}

// TestCLIModeFlagPairs is the mode matrix as a table (ROADMAP aim 3c):
// every pair of mode flags either writes the plain run's VCF
// byte-for-byte (-workers 1, so accumulation order is fixed) or exits
// non-zero with a message naming both flags. -fit is the one mode that
// changes the answer (it re-estimates the PHMM parameters), so pairs
// containing it are held to the -fit-only run's VCF instead.
func TestCLIModeFlagPairs(t *testing.T) {
	bins := buildTools(t)
	data := t.TempDir()
	run(t, filepath.Join(bins, "readsim"),
		"-out", data, "-length", "30000", "-snps", "4", "-coverage", "8", "-seed", "5")
	bin := filepath.Join(bins, "gnumap-snp")
	common := []string{
		"-ref", filepath.Join(data, "reference.fa"),
		"-reads", filepath.Join(data, "reads.fq"),
		"-workers", "1",
	}

	type mode struct {
		name string
		// args builds the mode's flags; tag keeps side-output files of
		// different runs apart.
		args func(tag string) []string
		// named lists the spellings a rejection may use for this mode.
		named []string
	}
	modes := []mode{
		{"checkpoint", func(tag string) []string {
			return []string{"-checkpoint", filepath.Join(data, tag+".ckpt"), "-checkpoint-every", "1000"}
		}, []string{"-checkpoint"}},
		{"incremental", func(string) []string { return []string{"-incremental-every", "700"} }, []string{"-incremental-every"}},
		{"sam", func(tag string) []string { return []string{"-sam", filepath.Join(data, tag+".sam")} }, []string{"-sam"}},
		{"pileup", func(tag string) []string { return []string{"-pileup", filepath.Join(data, tag+".tsv")} }, []string{"-pileup"}},
		{"fit", func(string) []string { return []string{"-fit"} }, []string{"-fit"}},
		{"read-split", func(string) []string { return []string{"-nodes", "2", "-split", "read"} }, []string{"-nodes", "-split"}},
		{"genome-split", func(string) []string { return []string{"-nodes", "2", "-split", "genome"} }, []string{"-nodes", "-split"}},
		// The fault-tolerant row is a cluster mode: -op-timeout without
		// -nodes > 1 is refused (below), so the row cannot be a no-op.
		{"ft-read-split", func(string) []string { return []string{"-nodes", "2", "-split", "read", "-op-timeout", "30s"} }, []string{"-nodes", "-split", "-op-timeout"}},
	}
	// The four holes that remain in the mode matrix (DESIGN.md §10,
	// refused by gnumap.CheckModes); every other pair must compose —
	// read-split is the Pipeline's mapping step, so checkpoint,
	// incremental calling, sam and pileup work on it as they do in one
	// process.
	mustRefuse := map[string]bool{
		// genome-split keeps no whole-genome state on any rank
		"checkpoint+genome-split":  true,
		"incremental+genome-split": true,
		"sam+genome-split":         true,
		"pileup+genome-split":      true,
	}

	vcfOf := func(tag string, extra ...string) (vcf []byte, output string, err error) {
		out := filepath.Join(data, tag+".vcf")
		cmd := exec.Command(bin, append(append(append([]string{}, common...), extra...), "-o", out)...)
		raw, err := cmd.CombinedOutput()
		if err != nil {
			return nil, string(raw), err
		}
		vcf, rerr := os.ReadFile(out)
		if rerr != nil {
			t.Fatal(rerr)
		}
		return vcf, string(raw), nil
	}
	metricsPath := filepath.Join(data, "plain.metrics.json")
	plain, out, err := vcfOf("plain", "-metrics-out", metricsPath)
	if err != nil {
		t.Fatalf("plain run: %v\n%s", err, out)
	}
	// -workers is the one parallelism knob: at -workers 1 the calling
	// sweep runs on one worker too, whatever GOMAXPROCS is. A run with
	// no peers builds no cluster transport, so it reports no comm.*.
	var report struct {
		Merged struct {
			Gauges     map[string]float64
			Counters   map[string]int64
			Histograms map[string]json.RawMessage
		}
	}
	if m, err := os.ReadFile(metricsPath); err != nil || json.Unmarshal(m, &report) != nil {
		t.Errorf("read metrics: %v", err)
	} else {
		if w := report.Merged.Gauges["call.workers"]; w != 1 {
			t.Errorf("-workers 1 swept on call.workers = %v", w)
		}
		var names []string
		for n := range report.Merged.Gauges {
			names = append(names, n)
		}
		for n := range report.Merged.Counters {
			names = append(names, n)
		}
		for n := range report.Merged.Histograms {
			names = append(names, n)
		}
		for _, n := range names {
			if strings.HasPrefix(n, "comm.") {
				t.Errorf("single-process run reports %s", n)
			}
		}
	}
	if !strings.Contains(string(plain), "\tPASS\t") {
		t.Fatal("plain run called no SNPs; dataset too weak for an identity table")
	}
	fitted, out, err := vcfOf("fit-only", "-fit")
	if err != nil {
		t.Fatalf("-fit run: %v\n%s", err, out)
	}

	for i, a := range modes {
		for _, b := range modes[i+1:] {
			pair := a.name + "+" + b.name
			if strings.HasSuffix(a.name, "-split") && strings.HasSuffix(b.name, "-split") {
				continue // values of one flag (-split, with or without deadlines), not a pair of modes
			}
			got, out, err := vcfOf(pair, append(a.args(pair), b.args(pair)...)...)
			if err != nil {
				if !mustRefuse[pair] {
					t.Errorf("%s: must compose, but failed: %v\n%s", pair, err, out)
					continue
				}
				for _, m := range []mode{a, b} {
					ok := false
					for _, n := range m.named {
						ok = ok || strings.Contains(out, n)
					}
					if !ok {
						t.Errorf("%s: rejection does not name %v:\n%s", pair, m.named, out)
					}
				}
				continue
			}
			if mustRefuse[pair] {
				t.Errorf("%s: listed as a remaining hole, but ran; move it to the composing side", pair)
			}
			want := plain
			if a.name == "fit" || b.name == "fit" {
				want = fitted
			}
			if string(got) != string(want) {
				t.Errorf("%s: VCF differs from the reference run:\n--- want ---\n%s\n--- got ---\n%s", pair, want, got)
			}
		}
	}

	// The cluster flags without a cluster: refused, naming the flag and
	// -nodes, instead of silently ignored.
	for _, args := range [][]string{{"-op-timeout", "30s"}, {"-chaos", "seed=1,drop=0.01"}, {"-tcp"}} {
		_, out, err = vcfOf("no-cluster", args...)
		if err == nil || !strings.Contains(out, args[0]) || !strings.Contains(out, "-nodes") {
			t.Errorf("%v at -nodes 1: err=%v, want a refusal naming %s and -nodes:\n%s", args, err, args[0], out)
		}
	}

	// Retired flags: -stream (a slice is a source of the one pipeline),
	// the five execution knobs whose value is now a constant or derived
	// from -workers / -op-timeout, -accum-mode (striped is the only
	// write strategy; no accept-and-ignore shim) and -cpuprofile /
	// -memprofile (-profile DIR writes both profiles). Each must be an
	// unknown flag: the flag package's message and its exit code 2.
	for _, retired := range []string{"-stream=false", "-phmm-batch=0", "-call-vector=false", "-call-workers=1", "-queue=4", "-heartbeat=1s", "-accum-mode=striped", "-cpuprofile=cpu.pprof", "-memprofile=mem.pprof"} {
		name, _, _ := strings.Cut(retired, "=")
		_, out, err = vcfOf("retired-flag", retired)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(out, "flag provided but not defined: "+name) {
			t.Errorf("%s: err=%v, want an unknown-flag failure with exit code 2:\n%s", retired, err, out)
		}
	}

	// Flag budget: options only go down from here.
	usage, _ := exec.Command(bin, "-h").CombinedOutput()
	if n := strings.Count(string(usage), "\n  -"); n == 0 || n > 29 {
		t.Errorf("gnumap-snp -h lists %d flags, budget is 29:\n%s", n, usage)
	}
}

// TestCLIGenomeSplitHonoursIndex: -split genome seeds against the run's
// one index. With -index FILE no rank builds one, and the VCF is the
// one-process -index run's; without it the index is built once, on
// rank 0, not once per rank.
func TestCLIGenomeSplitHonoursIndex(t *testing.T) {
	bins := buildTools(t)
	data := t.TempDir()
	run(t, filepath.Join(bins, "readsim"),
		"-out", data, "-length", "30000", "-snps", "4", "-coverage", "8", "-seed", "5")
	bin := filepath.Join(bins, "gnumap-snp")
	ix := filepath.Join(data, "ref.gnix")
	gnumap := func(tag string, extra ...string) []byte {
		t.Helper()
		out := filepath.Join(data, tag+".vcf")
		run(t, bin, append([]string{
			"-ref", filepath.Join(data, "reference.fa"), "-reads", filepath.Join(data, "reads.fq"),
			"-workers", "1", "-o", out}, extra...)...)
		vcf, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return vcf
	}
	// indexBuilds returns the ranks of a -metrics-out report that timed an
	// index build, one entry per observation.
	indexBuilds := func(path string) []int {
		t.Helper()
		var report struct {
			Ranks []struct {
				Rank       int
				Histograms map[string]struct{ Count int64 }
			}
		}
		if m, err := os.ReadFile(path); err != nil || json.Unmarshal(m, &report) != nil {
			t.Fatalf("read metrics %s: %v", path, err)
		}
		var ranks []int
		for _, snap := range report.Ranks {
			for range snap.Histograms["index.build.seconds"].Count {
				ranks = append(ranks, snap.Rank)
			}
		}
		return ranks
	}

	gnumap("write", "-seed-len", "16", "-index-write", ix)
	one := gnumap("one", "-index", ix)
	if !strings.Contains(string(one), "\tPASS\t") {
		t.Fatal("one-process run called no SNPs; dataset too weak for an identity test")
	}
	m := filepath.Join(data, "indexed.json")
	if got := gnumap("indexed", "-index", ix, "-nodes", "2", "-split", "genome", "-metrics-out", m); string(got) != string(one) {
		t.Errorf("-index -nodes 2 -split genome VCF differs from the one-process -index run:\n--- want ---\n%s\n--- got ---\n%s", one, got)
	}
	if ranks := indexBuilds(m); len(ranks) != 0 {
		t.Errorf("-index -nodes 2 -split genome: ranks %v built a seed index", ranks)
	}
	m = filepath.Join(data, "built.json")
	gnumap("built", "-nodes", "2", "-split", "genome", "-metrics-out", m)
	if ranks := indexBuilds(m); len(ranks) != 1 || ranks[0] != 0 {
		t.Errorf("-nodes 2 -split genome: index builds on ranks %v, want one on rank 0", ranks)
	}

	// A format-version-1 index (every k-mer keyed apart, no canonical
	// keys) is refused before mapping, with the flag that rebuilds it.
	v1 := filepath.Join("..", "internal", "kmer", "testdata", "golden.gnix")
	out, err := exec.Command(bin, "-ref", filepath.Join(data, "reference.fa"), "-reads", filepath.Join(data, "reads.fq"),
		"-workers", "1", "-o", filepath.Join(data, "v1.vcf"), "-index", v1).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-index-write") {
		t.Errorf("-index with a version-1 file: err=%v, want a failure naming -index-write:\n%s", err, out)
	}
}
