package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// session is one workload's inputs, expected output and samples. Its
// wall comes from in-process passes (trace.go): the public calls
// gnumap-snp makes, in its order, timed part by part. Everything else
// comes from fresh execs of the real gnumap-snp binary: CLI runs (FASTA
// + FASTQ in, VCF out), which fix the output every pass must reproduce
// and give peak RSS, mapped fraction and F1, and set-up runs (the same
// command line given a zero-read FASTQ). A workload with a persisted
// index also has prepare runs (-index-write), outside every end-to-end
// metric.
type session struct {
	w   workload
	d   *dataset
	bin string
	// wantVCF and want are the warm-up run's output, which every later
	// run and pass of the workload must reproduce.
	wantVCF []byte
	want    []vcfCall

	// tr holds the spans of every pass and leg; runs numbers them.
	tr     *tracer
	runs   int
	passes []*driverRun
	// passTurn, setupTurn and cliTurn count each kind of one-worker run,
	// for inTurn.
	passTurn, setupTurn, cliTurn int
	// cli holds the warm-up run and the CLI runs after it; the warm-up's
	// times are not used (it pages in the binary and the inputs).
	cli         []rep
	f1          []float64
	setup, prep []float64

	attempted, failed int
	failures          []string
	// notes are findings that are flagged, not failed.
	notes []string
}

// Floors under which a run's output counts as wrong, whatever the
// other runs produced: well below what any workload reaches (mapped
// fraction and F1 are above 0.95 everywhere) and far above garbage.
const (
	minMappedFrac = 0.90
	minF1         = 0.80
)

// newSession generates the workload's inputs from the seed, runs the
// prepare step if the workload has one, and makes one warm-up CLI run
// that pages in the binary and the inputs and fixes the expected
// output.
func newSession(w workload, seed int64, bin, dir string) (*session, error) {
	d, err := buildDataset(w, seed, dir)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	s := &session{w: w, d: d, bin: bin, tr: newTracer()}
	if d.Index != "" {
		s.prepRep()
		if s.failed > 0 {
			return nil, fmt.Errorf("%s", s.failures[0])
		}
	}
	var r rep
	err = s.inTurn(&s.cliTurn, func() (err error) {
		r, err = runCLI(bin, s.mapArgs(d.Reads), s.out())
		return err
	})
	s.attempted++
	if err == nil {
		s.want, err = parseVCF(r.VCF)
	}
	if err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.Name, err)
	}
	s.wantVCF = r.VCF
	if err := s.plausible(r, s.want); err != nil {
		s.fail("warm-up", 0, err)
	}
	s.cli = append(s.cli, r)
	s.f1 = append(s.f1, score(s.want, d.Truth).f1())
	return s, nil
}

// inTurn runs f — a pass, or the start of a gnumap-snp process, which
// inherits the confinement — on one CPU: the host's CPUs in turn, by
// the count of runs of its kind. On a shared host each vCPU has
// neighbours of its own and is slowed by them for minutes at a time,
// independently of the other (README, "Noise"); a one-worker run that
// floats, or that the kernel happens to leave on the slow vCPU, cannot
// tell. Taking turns, a window's floor sum and its best3 draw on
// whichever CPU was the quieter. Where CPUs cannot be told apart f runs
// unconfined.
func (s *session) inTurn(turn *int, f func() error) error {
	cpus := allowedCPUs()
	if len(cpus) == 0 {
		return f()
	}
	*turn++
	return confine(cpus[*turn%len(cpus)], f)
}

func (s *session) out() string { return filepath.Join(s.d.Dir, "out.vcf") }

// mapArgs is the workload's command line over the given FASTQ.
func (s *session) mapArgs(reads string) []string {
	args := append([]string{"-ref", s.d.Ref, "-reads", reads}, s.w.cliArgs()...)
	if s.d.Index != "" {
		args = append(args, "-index", s.d.Index)
	}
	return args
}

// fail records a failed check, naming the workload and the run.
func (s *session) fail(kind string, n int, err error) {
	s.failed++
	s.failures = append(s.failures, fmt.Sprintf("%s %s run %d: %v", s.w.Name, kind, n, err))
}

// plausible checks a mapping run's output against the inputs: every
// read accounted for, and mapped fraction and F1 above the floors.
func (s *session) plausible(r rep, calls []vcfCall) error {
	if r.Total != int64(s.d.NReads) {
		return fmt.Errorf("CLI counted %d reads, FASTQ has %d", r.Total, s.d.NReads)
	}
	if frac := float64(r.Mapped) / float64(r.Total); frac < minMappedFrac {
		return fmt.Errorf("mapped fraction %.4f below %.2f", frac, minMappedFrac)
	}
	if f1 := score(calls, s.d.Truth).f1(); f1 < minF1 {
		return fmt.Errorf("SNP F1 %.4f below %.2f", f1, minF1)
	}
	return nil
}

// cliRep makes one CLI run and checks its VCF against the warm-up's,
// byte for byte: one worker in one process is deterministic. A failed
// run adds no sample.
func (s *session) cliRep() {
	n := len(s.cli)
	s.attempted++
	var r rep
	err := s.inTurn(&s.cliTurn, func() (err error) {
		r, err = runCLI(s.bin, s.mapArgs(s.d.Reads), s.out())
		return err
	})
	var calls []vcfCall
	if err == nil {
		calls, err = parseVCF(r.VCF)
	}
	if err == nil {
		err = s.plausible(r, calls)
	}
	if err == nil && !bytes.Equal(r.VCF, s.wantVCF) {
		err = fmt.Errorf("VCF bytes differ from the warm-up run's")
	}
	if err != nil {
		s.fail("CLI", n, err)
		return
	}
	s.cli = append(s.cli, r)
	s.f1 = append(s.f1, score(calls, s.d.Truth).f1())
}

// setupRep times the per-run fixed cost: the workload's command line on
// a zero-read FASTQ, so process start, FASTA parse, index build or mmap,
// accumulator allocation, the empty sweep and exit, and no mapping.
func (s *session) setupRep() {
	n := len(s.setup) + 1
	s.attempted++
	var r rep
	err := s.inTurn(&s.setupTurn, func() (err error) {
		r, err = runCLI(s.bin, s.mapArgs(s.d.Empty), filepath.Join(s.d.Dir, "empty.vcf"))
		return err
	})
	if err == nil && r.Total != 0 {
		err = fmt.Errorf("CLI counted %d reads in an empty FASTQ", r.Total)
	}
	if err == nil {
		var calls []vcfCall
		if calls, err = parseVCF(r.VCF); err == nil && len(calls) != 0 {
			err = fmt.Errorf("%d calls from zero reads", len(calls))
		}
	}
	if err != nil {
		s.fail("set-up", n, err)
		return
	}
	s.setup = append(s.setup, r.Wall)
}

// prepRep makes the one-off preparation a persisted index needs:
// gnumap-snp -index-write over the reference, again with zero reads.
// The first call (newSession) writes the index the runs and passes use;
// later calls (traced runs, for kmer.build_s) write a scratch copy,
// which must come out byte-identical.
func (s *session) prepRep() {
	n := len(s.prep) + 1
	s.attempted++
	path := s.d.Index
	if n > 1 {
		path += ".again"
		defer os.Remove(path)
	}
	args := append([]string{"-ref", s.d.Ref, "-reads", s.d.Empty}, s.w.cliArgs()...)
	args = append(args, "-seed-len", strconv.Itoa(s.w.SeedLen), "-index-write", path)
	r, err := runCLI(s.bin, args, filepath.Join(s.d.Dir, "empty.vcf"))
	if err == nil {
		var sum string
		name := filepath.Base(s.d.Index)
		switch sum, err = fileDigest(path); {
		case err != nil:
		case n == 1:
			s.d.Digests[name] = sum
		case sum != s.d.Digests[name]:
			err = fmt.Errorf("index differs from the first prepare run's")
		}
	}
	if err != nil {
		s.fail("prepare", n, err)
		return
	}
	s.prep = append(s.prep, r.Wall)
}

// cliEvery is how many rounds share one CLI run: the CLI's output and
// peak RSS repeat from run to run, so most of a window goes to passes.
const cliEvery = 4

// round is turn number n (from 0) of the measurement loop for this
// workload: an in-process pass with the registry off, a set-up run and,
// every cliEvery-th turn, a CLI run.
func (s *session) round(n int) error {
	r, err := s.pass(false)
	if err != nil {
		return err
	}
	if r != nil {
		s.passes = append(s.passes, r)
	}
	s.setupRep()
	if n%cliEvery == cliEvery-1 {
		s.cliRep()
	}
	return nil
}

// column extracts one field of the CLI runs, the warm-up included.
func (s *session) column(f func(rep) float64) []float64 {
	v := make([]float64, len(s.cli))
	for i, r := range s.cli {
		v[i] = f(r)
	}
	return v
}

// cliWalls and cliCPUs are the CLI runs' times without the warm-up's.
func (s *session) cliWalls() []float64 { return s.column(func(r rep) float64 { return r.Wall })[1:] }
func (s *session) cliCPUs() []float64  { return s.column(func(r rep) float64 { return r.CPU })[1:] }

// passWalls are the passes' walls, parts are their parts row by row.
func (s *session) passWalls() []float64 {
	v := make([]float64, len(s.passes))
	for i, r := range s.passes {
		v[i] = r.Wall
	}
	return v
}

func parts(passes []*driverRun) [][]float64 {
	rows := make([][]float64, len(passes))
	for i, r := range passes {
		rows[i] = r.Parts
	}
	return rows
}

// mapParts are the rows of the mapping stage's slices alone.
func mapParts(passes []*driverRun) [][]float64 {
	rows := make([][]float64, len(passes))
	for i, r := range passes {
		rows[i] = r.Parts[r.MapLo:r.MapHi]
	}
	return rows
}

// endToEnd computes the end-to-end metrics from the samples so far:
// the wall is the passes' floor sum, the set-up time best3, sizes and
// fractions are medians.
func (s *session) endToEnd() map[string]float64 {
	wall := floorSum(parts(s.passes))
	m := map[string]float64{
		"wall_s":      wall,
		"setup_s":     best3(s.setup),
		"peak_rss_mb": median(s.column(func(r rep) float64 { return r.RSSMB })),
		"mapped_frac": median(s.column(func(r rep) float64 { return float64(r.Mapped) / float64(r.Total) })),
		"snp_f1":      median(s.f1),
	}
	if wall > 0 {
		m["reads_per_s"] = float64(s.d.NReads) / wall
	}
	return m
}
