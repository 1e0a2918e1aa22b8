package main

import (
	"fmt"
	"runtime"
	"strconv"
)

// workload is one set of inputs plus the command line that maps them.
// Every workload uses 62-bp reads with the default quality ramp; the
// fields are the input properties the mapper's behaviour depends on:
// how many places a read can map, how large the per-position state is
// next to the caches, and which index and kernel carry the work.
//
// Every workload maps with one worker. On the 2-vCPU shared hosts this
// benchmark is sized for, a run that needs both vCPUs at once cannot be
// timed to within the bounds (README, "Noise"); the parallel and
// cluster paths are measured in the traced run and reported as
// per-layer metrics, which have no bound.
type workload struct {
	Name string
	// Why goes verbatim into BENCHMARK.json.
	Why string
	// GenomeLen is the reference length; the first TargetLen bases are
	// sequenced at targetCoverage and carry the planted SNPs, the rest
	// is decoy sequence the index and the accumulator still pay for.
	GenomeLen, TargetLen int
	// Dispersed and Tandem are the repeat fractions of the reference.
	Dispersed, Tandem float64
	// Background is extra coverage spread over the whole reference, so
	// accumulator writes land everywhere, not only on the target.
	Background float64
	// SeedLen above 14 selects the persisted large-seed index: a
	// prepare step builds the .gnix with -index-write, the runs and
	// passes mmap it. Zero is the default k=10 direct table.
	SeedLen int
	// Cluster adds, in the traced run only, the same files through two
	// simulated nodes (the cluster.* metrics).
	Cluster bool
}

const (
	targetCoverage = 12
	// snpSpacing plants one SNP every this many target bases: enough
	// calls (75–250 per workload) that one flipped call moves F1 by
	// under a percent.
	snpSpacing = 400
	// maxThreads caps N, the worker count of the traced run's parallel
	// leg, so results from hosts with many cores stay comparable with
	// the 2–4 core hosts this was sized on.
	maxThreads = 4
	// clusterNodes is the node count of the traced run's cluster leg.
	clusterNodes = 2
)

// workloads is the benchmark's fixed workload list. Sizes give an
// in-process pass of about one second on a 2 GHz core, so that one
// --seconds window holds twenty or more (README, "Sizing").
var workloads = []workload{
	{
		Name:      "unique-w1",
		Why:       "repeat-free 1.5 Mbp reference, 100 kbp of it sequenced at 12x, k=10 direct table, one worker: time splits between seed voting over random hits and one scalar Pair-HMM per read; small state",
		GenomeLen: 1_500_000, TargetLen: 100_000, Cluster: true,
	},
	{
		Name:      "repeats-w1",
		Why:       "80 kbp genome, 25% dispersed + 5% tandem repeats, 12x, one worker: several candidates per read, so the 8-lane batched kernel and multi-location weighting carry the work; seed hits are repeat copies",
		GenomeLen: 80_000, TargetLen: 80_000, Dispersed: 0.25, Tandem: 0.05,
	},
	{
		Name:      "wide-k20-w1",
		Why:       "4 Mbp reference, mmapped k=20 hash index, reads all over the genome, one worker: hash lookups, scattered accumulator writes, 76 MiB planes, full-length sweep; a quarter of the wall is fixed cost",
		GenomeLen: 4_000_000, TargetLen: 30_000, Background: 0.2, SeedLen: 20,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload to a 20 kbp reference for the tier-1 test
// and the -smoke flag: same code paths, a fraction of a second per run.
func (w workload) smoke() workload {
	w.GenomeLen = 20_000
	if w.TargetLen > 8_000 {
		w.TargetLen = 8_000
	}
	return w
}

// benchThreads is N: the worker count of the traced run's parallel leg.
func benchThreads() int {
	n := runtime.NumCPU()
	if n > maxThreads {
		n = maxThreads
	}
	return n
}

// cliArgs is the mapping command line without -ref/-reads/-o/-index.
func (w workload) cliArgs() []string { return []string{"-workers", "1"} }

// parallelArgs and clusterArgs are the command lines of the traced
// run's two extra legs over the same files.
func parallelArgs() []string {
	return []string{"-workers", strconv.Itoa(benchThreads()), "-accum-mode", "auto"}
}

func clusterArgs() []string {
	return []string{"-nodes", strconv.Itoa(clusterNodes), "-split", "read", "-workers", "1"}
}

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer
// list. Bound is zero for per-layer metrics.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEnd lists what a user of the pipeline sees. wall_s is the
// floor-composed wall of an in-process FASTA+FASTQ→VCF pass (README,
// "How a number is taken"); setup_s, peak_rss_mb, mapped_frac and
// snp_f1 come from fresh execs of the real gnumap-snp binary. The
// issue's cpu_s is a per-layer metric now (cli.cpu_s): with one worker
// it repeats wall_s. fail_frac of the issue is not a metric here: it is
// 0 on a healthy run, and the contract asks for metrics that are never
// 0; it is reported as failed/attempted.
//
// The time bounds sit at the contract's 25% ceiling because the host
// changes regime for minutes at a time and even the floor moves by
// about a tenth between regimes (README, "Noise"). The others are three
// to four times their largest observed spread.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"reads_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.2},
	{"mapped_frac", "frac", "higher", 0.01},
	{"snp_f1", "frac", "higher", 0.06},
}

// perLayer lists the single-layer metrics of a traced run, by module.
// A metric whose layer does not run in a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "fasta.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "fastq.parse_ns_per_read", Unit: "ns", Better: "lower"},
	{Name: "fastq.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "pwm.fill_ns_per_read", Unit: "ns", Better: "lower"},

	{Name: "kmer.build_s", Unit: "s", Better: "lower"},
	{Name: "kmer.open_s", Unit: "s", Better: "lower"},
	{Name: "kmer.index_mb", Unit: "MiB", Better: "lower"},
	{Name: "kmer.lookup_ns_per_read", Unit: "ns", Better: "lower"},
	{Name: "kmer.seed_hits_per_read", Unit: "count", Better: "lower"},
	{Name: "kmer.masked_per_read", Unit: "count", Better: "lower"},
	{Name: "kmer.candidates_per_read", Unit: "count", Better: "lower"},

	{Name: "phmm.batch_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "phmm.scalar_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "phmm.gcups", Unit: "Gcell/s", Better: "higher"},
	{Name: "phmm.cells_per_read", Unit: "count", Better: "lower"},
	{Name: "phmm.alignments_per_read", Unit: "count", Better: "lower"},

	{Name: "core.new_pipeline_s", Unit: "s", Better: "lower"},
	{Name: "core.map_s", Unit: "s", Better: "lower"},
	{Name: "core.map_cpu_s", Unit: "s", Better: "lower"},
	{Name: "core.parallel_eff", Unit: "frac", Better: "higher"},
	{Name: "core.wn_speedup", Unit: "x", Better: "higher"},
	{Name: "core.locations_per_read", Unit: "count", Better: "lower"},
	{Name: "core.map_unattributed_frac", Unit: "frac", Better: "lower"},

	{Name: "genome.alloc_s", Unit: "s", Better: "lower"},
	{Name: "genome.acc_mb", Unit: "MiB", Better: "lower"},
	{Name: "genome.add_striped_ns_per_range", Unit: "ns", Better: "lower"},
	{Name: "genome.add_shard_ns_per_range", Unit: "ns", Better: "lower"},
	{Name: "genome.merge_s", Unit: "s", Better: "lower"},
	{Name: "genome.merge_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "genome.freeze_s", Unit: "s", Better: "lower"},
	{Name: "genome.state_encode_s", Unit: "s", Better: "lower"},
	{Name: "genome.state_decode_s", Unit: "s", Better: "lower"},

	{Name: "snp.call_s", Unit: "s", Better: "lower"},
	{Name: "snp.sweep_ns_per_pos", Unit: "ns", Better: "lower"},
	{Name: "snp.finalize_s", Unit: "s", Better: "lower"},
	{Name: "snp.write_vcf_s", Unit: "s", Better: "lower"},
	{Name: "snp.tested", Unit: "count", Better: "lower"},
	{Name: "snp.prescreened", Unit: "count", Better: "higher"},
	{Name: "snp.calls", Unit: "count", Better: "higher"},
	{Name: "snp.tp", Unit: "count", Better: "higher"},
	{Name: "snp.fp", Unit: "count", Better: "lower"},
	{Name: "snp.fn", Unit: "count", Better: "lower"},
	{Name: "qc.coverage_s", Unit: "s", Better: "lower"},

	{Name: "cluster.run_s", Unit: "s", Better: "lower"},
	{Name: "cluster.send_bytes", Unit: "B", Better: "lower"},
	{Name: "cluster.send_count", Unit: "count", Better: "lower"},
	{Name: "cluster.coll_s", Unit: "s", Better: "lower"},
	{Name: "cluster.np2_speedup", Unit: "x", Better: "higher"},

	{Name: "cli.wall_s", Unit: "s", Better: "lower"},
	{Name: "cli.cpu_s", Unit: "s", Better: "lower"},
	{Name: "trace.span_sum_frac", Unit: "frac", Better: "higher"},
	{Name: "trace.cli_gap_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "host.contention_index", Unit: "x", Better: "lower"},
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver has
// each run measure. 4 + 22×3 runs of 38 s plus set-up, warm-up and
// builds come to about 51 of the driver's 57 minutes on the host this
// was sized on (README, "Sizing").
const runSeconds = 38
