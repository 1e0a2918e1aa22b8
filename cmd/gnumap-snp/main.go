// Command gnumap-snp maps FASTQ reads to a FASTA reference with the
// probabilistic Pair-HMM engine and calls SNPs with the likelihood
// ratio test, writing VCF to stdout or a file.
//
// Usage:
//
//	gnumap-snp -ref reference.fa -reads reads.fq -o calls.vcf \
//	    [-diploid] [-alpha 0.05] [-fdr] [-memory norm|chardisc|centdisc] \
//	    [-workers N] [-batch 64] \
//	    [-incremental-every 5000] \
//	    [-nodes N -split read|genome [-tcp]] \
//	    [-op-timeout 5s] [-chaos seed=42,drop=0.01] \
//	    [-metrics-out metrics.json] [-pprof localhost:6060] \
//	    [-profile DIR]
//
// With -nodes > 1 the run executes on a simulated message-passing
// cluster (goroutine nodes; -tcp switches to loopback TCP), using the
// paper's read-split or genome-split strategy. Read-split is the same
// pipeline with its mapping step placed on N ranks: rank 0 folds their
// state, so -checkpoint/-resume, -sam, -pileup and the coverage summary
// work as in one process. Genome-split ranks each own a slice of the
// accumulator and align the reads' candidates that start in it; both
// splits seed against the run's one index (-index, -index-write, or
// one built once), so both map what one process maps. -op-timeout bounds every
// cluster operation; in read-split mode rank 0 then also keeps a ledger
// of the batches it dealt since the last checkpoint round and re-deals
// a lost worker's share (loss detected by heartbeats every tenth of the
// deadline), still streaming the FASTQ. -chaos injects deterministic
// faults for resilience testing. All three are cluster flags and are
// refused without -nodes > 1.
//
// Observability: -metrics-out writes the run's merged metrics report
// (per-rank stage timers, counters, and communication gauges) as JSON
// and prints a human summary to stderr; -pprof serves net/http/pprof
// on the given address for live inspection; -profile DIR writes
// DIR/cpu.pprof (the whole run) and DIR/heap.pprof (the live heap at
// exit), standard runtime profiles for `go tool pprof`.
//
// One mapping run: reads stream from the FASTQ through one bounded
// pipeline, and no option holds the read set: -fit reads only its
// 2000-read sample, and -sam's second pass reopens the FASTQ after
// calling and streams it again (so -sam needs a regular file; a FIFO is
// refused at startup). -checkpoint and -incremental-every subscribe to
// that pipeline's quiesce barrier and compose with each other, with
// -fit/-sam and with -split read. The four feature × placement pairs
// that do not compose are refused at startup by the library
// (gnumap.CheckModes), naming both flags and the reason: -checkpoint,
// -incremental-every, -sam and -pileup with -split genome (genome-split
// keeps no whole-genome state on any rank).
//
// Crash safety: -checkpoint FILE makes the run write its full state
// (config fingerprint, source watermark, mapping counters, accumulator)
// atomically to FILE every -checkpoint-every reads (an integer) or wall
// time (a duration like 30s). -resume loads FILE if it
// exists, skips the already-mapped prefix of the FASTQ, and continues —
// so a supervisor can relaunch the same command line after a crash or a
// kill and the final VCF matches an uninterrupted run. SIGINT/SIGTERM
// trigger a graceful stop: drain the pipeline, write a final
// checkpoint, flush -metrics-out, exit with code 3 (a second signal
// aborts immediately). On a read-split cluster the same checkpoints are
// taken at the dealer's rounds (with or without -op-timeout/-chaos), and
// a checkpoint written at one -nodes resumes at any other.
//
// Incremental calling: -incremental-every N overlaps SNP calling with
// mapping — every N reads the pipeline quiesces (on a read-split
// cluster, rank 0 after folding every rank's state), only the
// 4096-position genome tiles written since the last barrier are
// re-swept, on -workers goroutines, and a provisional call set is
// produced; the final VCF comes from the last incremental sweep and
// matches the post-map sweep of an ordinary run. The
// first-provisional-call time is reported on stderr. Refused with
// -split genome.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"gnumap"
	"gnumap/internal/fastq"
	"gnumap/internal/kmer"
	"gnumap/internal/obs"
)

// stopExitCode distinguishes "stopped gracefully, state checkpointed"
// from success (0) and failure (1): the job is incomplete but cleanly
// resumable with -resume.
const stopExitCode = 3

func main() {
	log.SetFlags(0)
	log.SetPrefix("gnumap-snp: ")
	if err := run(); err != nil {
		if errors.Is(err, gnumap.ErrStopped) {
			log.Print(err)
			os.Exit(stopExitCode)
		}
		log.Fatal(err)
	}
}

func run() error {
	var (
		refPath    = flag.String("ref", "", "reference FASTA (required)")
		readsPath  = flag.String("reads", "", "reads FASTQ (required)")
		outPath    = flag.String("o", "", "output VCF (default stdout)")
		phred64    = flag.Bool("phred64", false, "reads use Phred+64 qualities")
		diploid    = flag.Bool("diploid", false, "use the diploid LRT (heterozygous calls)")
		alpha      = flag.Float64("alpha", 0.05, "family-wise significance level")
		fdr        = flag.Bool("fdr", false, "Benjamini-Hochberg FDR control instead of the fixed cutoff")
		memory     = flag.String("memory", "norm", "accumulator layout: norm, chardisc, centdisc")
		seedLen    = flag.Int("seed-len", 0, "seed length k (0 = default 10; >14 selects the frequency-capped large-seed index)")
		indexPath  = flag.String("index", "", "mmap a persisted seed index built by -index-write; validated against the reference, and sets the seed length from the file when -seed-len is unset")
		indexWrite = flag.String("index-write", "", "build the large-seed index (requires -seed-len > 14), persist it to this file, and continue mapping")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "shared-memory worker count, for mapping and for the calling sweep")
		batch      = flag.Int("batch", 0, "reads per pipeline batch, whose candidate windows share Pair-HMM sweeps (0 = default 64; results are identical at any value)")
		band       = flag.Int("band", 0, "PHMM band width in DP cells around the seed diagonal (0 = auto 2*pad+2, negative = exact full kernel)")
		fit        = flag.Bool("fit", false, "fit PHMM parameters to the data (Baum-Welch) before mapping")
		samPath    = flag.String("sam", "", "also write best alignments as SAM to this file")
		pileupOut  = flag.String("pileup", "", "also write the probability pileup as TSV to this file")
		nodes      = flag.Int("nodes", 1, "simulated cluster size (1 = single process)")
		split      = flag.String("split", "read", "cluster strategy: read (replicate genome) or genome (partition genome)")
		tcp        = flag.Bool("tcp", false, "use loopback TCP between simulated nodes")
		opTimeout  = flag.Duration("op-timeout", 0, "cluster per-operation deadline; >0 also makes read-split re-deal a lost worker's batches (0 = block forever; needs -nodes > 1)")
		chaos      = flag.String("chaos", "", "deterministic fault injection spec, e.g. seed=42,drop=0.02,dup=0.01,crash=2@100")
		ckptPath   = flag.String("checkpoint", "", "write crash-safe checkpoints to this file; SIGINT/SIGTERM drain, checkpoint, and exit with code 3")
		ckptEvery  = flag.String("checkpoint-every", "5000", "checkpoint interval: an integer (reads) or a duration (e.g. 30s)")
		resume     = flag.Bool("resume", false, "resume from -checkpoint if the file exists (fresh start otherwise)")
		incEvery   = flag.Int64("incremental-every", 0, "overlap SNP calling with mapping: quiesce and re-sweep written genome tiles every N reads, reporting time to first provisional call (0 = off)")
		metricsOut = flag.String("metrics-out", "", "write the merged metrics report as JSON to this file (and a summary to stderr)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		profileDir = flag.String("profile", "", "write DIR/cpu.pprof for the whole run and DIR/heap.pprof, the live heap at exit")
	)
	flag.Parse()
	if *refPath == "" || *readsPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the /debug/pprof handlers via the
			// net/http/pprof import.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *profileDir != "" {
		stop, err := obs.StartProfiles(*profileDir)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				log.Printf("profile: %v", err)
			}
		}()
	}
	mem, err := parseMemory(*memory)
	if err != nil {
		return err
	}
	enc := gnumap.Sanger
	if *phred64 {
		enc = gnumap.Illumina13
	}
	reference, err := gnumap.LoadReference(*refPath)
	if err != nil {
		return err
	}
	opts := gnumap.Options{Memory: mem}
	if *resume && *ckptPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if *ckptPath != "" {
		everyReads, every, err := parseCheckpointEvery(*ckptEvery)
		if err != nil {
			return err
		}
		var stop atomic.Bool
		sig := make(chan os.Signal, 2)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			log.Print("signal received: draining and writing a final checkpoint (send again to abort immediately)")
			stop.Store(true)
			<-sig
			os.Exit(130)
		}()
		opts.Checkpoint = &gnumap.CheckpointConfig{
			Path:          *ckptPath,
			EveryReads:    everyReads,
			Every:         every,
			Resume:        *resume,
			StopRequested: stop.Load,
		}
	}
	if *incEvery != 0 {
		if *incEvery < 0 {
			return fmt.Errorf("-incremental-every %d: read interval must be positive", *incEvery)
		}
		opts.Incremental = &gnumap.IncrementalCallConfig{EveryReads: *incEvery}
	}
	if *nodes <= 1 {
		// The cluster flags configure a transport a single process does
		// not have; accepting them would pair a no-op with every mode.
		for _, f := range []struct {
			name string
			set  bool
		}{{"-op-timeout", *opTimeout > 0}, {"-chaos", *chaos != ""}, {"-tcp", *tcp}} {
			if f.set {
				return fmt.Errorf("%s configures the simulated cluster and needs -nodes > 1 (got -nodes %d)", f.name, *nodes)
			}
		}
	}
	if *nodes > 1 {
		opts.Cluster.Nodes = *nodes
		switch *split {
		case "read":
		case "genome":
			opts.Cluster.Split = gnumap.GenomeSplit
		default:
			return fmt.Errorf("unknown -split %q (want read or genome)", *split)
		}
		if *tcp {
			opts.Cluster.Transport = gnumap.TCP
		}
		opts.Cluster.OpTimeout = *opTimeout
		// Failure detection needs heartbeats; derive a period well inside
		// the deadline so slow ranks are not declared dead.
		opts.Cluster.Heartbeat = *opTimeout / 10
		if *chaos != "" {
			fc, err := gnumap.ParseChaosSpec(*chaos)
			if err != nil {
				return err
			}
			opts.Cluster.Fault = &fc
		}
	}
	// What the run asks for against where it runs: the library refuses
	// the pairs that do not compose, before anything is loaded.
	var outputs []string
	if *samPath != "" {
		outputs = append(outputs, "-sam")
	}
	if *pileupOut != "" {
		outputs = append(outputs, "-pileup")
	}
	if err := gnumap.CheckModes(opts, outputs...); err != nil {
		return err
	}
	// -sam streams the FASTQ a second time after calling: a pipe or
	// device can be read only once.
	if fi, err := os.Stat(*readsPath); *samPath != "" && err == nil && !fi.Mode().IsRegular() {
		return fmt.Errorf("-sam reads -reads twice (mapping, then alignment export): %s is not a regular file", *readsPath)
	}
	opts.Engine.K = *seedLen
	switch {
	case *indexPath != "" && *indexWrite != "":
		return fmt.Errorf("-index and -index-write are mutually exclusive")
	case *indexPath != "":
		ix, err := gnumap.OpenSeedIndex(*indexPath, reference)
		if errors.Is(err, kmer.ErrVersion) {
			return fmt.Errorf("open seed index: %w; rebuild it with -seed-len K -index-write FILE", err)
		}
		if err != nil {
			return fmt.Errorf("open seed index: %w", err)
		}
		defer ix.Close()
		if *seedLen != 0 && *seedLen != ix.K() {
			return fmt.Errorf("-seed-len %d conflicts with %s (built for k=%d)", *seedLen, *indexPath, ix.K())
		}
		opts.Engine.K = ix.K()
		opts.Engine.SeedIndex = ix
		fmt.Fprintf(os.Stderr, "seed index: %s mapped (k=%d, %s)\n",
			*indexPath, ix.K(), humanBytes(ix.MemoryBytes()))
	case *indexWrite != "":
		if *seedLen <= 14 {
			return fmt.Errorf("-index-write persists the large-seed index: set -seed-len above 14 (got %d)", *seedLen)
		}
		built, err := gnumap.BuildSeedIndex(reference, *seedLen)
		if err != nil {
			return err
		}
		lix, ok := built.(*gnumap.LargeSeedIndex)
		if !ok {
			return fmt.Errorf("seed-len %d did not build a persistable index", *seedLen)
		}
		n, err := gnumap.SaveSeedIndex(*indexWrite, lix, reference)
		if err != nil {
			return fmt.Errorf("write seed index: %w", err)
		}
		opts.Engine.SeedIndex = lix
		fmt.Fprintf(os.Stderr, "seed index: wrote %s (k=%d, %s)\n", *indexWrite, *seedLen, humanBytes(n))
	}
	opts.Engine.Workers = *workers
	opts.Engine.Band = *band
	opts.Engine.Batch = *batch
	// -workers is the one parallelism knob: it bounds the calling sweep
	// as well as mapping.
	opts.Caller.CallWorkers = *workers
	if *fit {
		f, err := gnumap.OpenReads(*readsPath, enc)
		if err != nil {
			return err
		}
		sample, err := fastq.NextBatch(f, 2000)
		f.Close()
		if err != nil {
			return err
		}
		params, err := gnumap.FitPHMM(reference, sample, 500)
		if err != nil {
			return err
		}
		opts.Engine.PHMM = params
		fmt.Fprintf(os.Stderr, "fitted PHMM: TMM=%.4f TMG=%.5f\n", params.TMM, params.TMG)
	}
	opts.Caller.Alpha = *alpha
	opts.Caller.UseFDR = *fdr
	if *diploid {
		opts.Caller.Ploidy = gnumap.Diploid
	}

	if *metricsOut != "" {
		opts.Metrics = gnumap.NewMetricsRegistry()
	}

	// One mapping run: open the source, map it through the one Pipeline —
	// in this process or read-split across ranks, the pipeline's business
	// — close it. Genome-split has no rank that could hold a Pipeline's
	// state and keeps its own runner.
	start := time.Now()
	src, err := gnumap.OpenReads(*readsPath, enc)
	if err != nil {
		return err
	}
	var calls []gnumap.SNPCall
	var stats gnumap.MapStats
	var report *gnumap.MetricsReport
	var p *gnumap.Pipeline
	cc := opts.Cluster
	switch {
	case cc.Nodes > 1 && cc.Split == gnumap.GenomeSplit:
		calls, stats, report, err = gnumap.RunClusterStreamReport(cc.Nodes, cc.Transport, cc.Split, reference, src, opts)
	default:
		if p, err = gnumap.NewPipeline(reference, opts); err != nil {
			break
		}
		if n := p.ReadsConsumed(); n > 0 {
			fmt.Fprintf(os.Stderr, "resuming from %s: %d reads already mapped\n", *ckptPath, n)
		}
		_, err = p.MapReadsFrom(src)
		// Cumulative across the whole job, so the summary line stays
		// honest after a resume.
		stats = p.CumulativeStats()
	}
	if cerr := src.Close(); err == nil {
		err = cerr
	}
	// A graceful stop (gnumap.ErrStopped) calls and writes nothing but
	// the metrics the interrupted run recorded.
	var stopErr error
	if errors.Is(err, gnumap.ErrStopped) {
		stopErr = err
	} else if err != nil {
		return err
	}
	if stats.Degraded() {
		fmt.Fprintf(os.Stderr, "WARNING: degraded run — lost rank(s) %v; their batches were re-dealt to the survivors\n", stats.LostRanks)
	}
	var qcStats *gnumap.CoverageStats
	if p != nil && stopErr == nil {
		calls, _, err = p.Call()
		if err != nil {
			return err
		}
		if is := p.IncrementalStats(); is.FirstCallSeconds > 0 {
			fmt.Fprintf(os.Stderr, "incremental: first provisional call after %.2fs (%d reads); %d sweeps, %d regions swept, %d reused\n",
				is.FirstCallSeconds, is.FirstCallReads, is.Sweeps, is.RegionsSwept, is.RegionsReused)
		}
		cs := p.CoverageStats()
		qcStats = &cs
		if *samPath != "" {
			if err := writeTo(*samPath, func(f *os.File) error {
				src, err := gnumap.OpenReads(*readsPath, enc)
				if err != nil {
					return err
				}
				err = p.WriteSAM(f, src)
				if cerr := src.Close(); err == nil {
					err = cerr
				}
				return err
			}); err != nil {
				return err
			}
		}
		if *pileupOut != "" {
			if err := writeTo(*pileupOut, func(f *os.File) error {
				return p.WritePileup(f, 2)
			}); err != nil {
				return err
			}
		}
	}
	if p != nil {
		// On a cluster it merges every rank.
		if report, err = p.MetricsReport(); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	if stopErr == nil {
		writeVCF := func(f *os.File) error { return gnumap.WriteVCF(f, calls) }
		if *outPath != "" {
			err = writeTo(*outPath, writeVCF)
		} else {
			err = writeVCF(os.Stdout)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mapped %d/%d reads (%d locations) in %s; %d SNPs\n",
			stats.Mapped, stats.Mapped+stats.Unmapped, stats.Locations, elapsed.Round(time.Millisecond), len(calls))
		if qcStats != nil {
			qcStats.WriteText(os.Stderr)
		}
	}
	if *metricsOut != "" {
		if err := writeTo(*metricsOut, func(f *os.File) error { return report.WriteJSON(f) }); err != nil {
			if stopErr == nil {
				return err
			}
			log.Printf("metrics-out: %v", err) // the checkpoint stands; keep the resumable exit status
		} else if stopErr == nil {
			if err := report.WriteText(os.Stderr); err != nil {
				return err
			}
		}
	}
	if stopErr != nil {
		return fmt.Errorf("%w to %s; relaunch with -resume to continue", stopErr, *ckptPath)
	}
	return nil
}

// parseCheckpointEvery reads the -checkpoint-every value: a bare
// integer is a read-count interval, anything else must parse as a
// duration.
func parseCheckpointEvery(s string) (int64, time.Duration, error) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		if n <= 0 {
			return 0, 0, fmt.Errorf("-checkpoint-every %q: read interval must be positive", s)
		}
		return n, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("-checkpoint-every %q: want a positive read count or duration", s)
	}
	return 0, d, nil
}

// humanBytes renders a byte count for status lines.
func humanBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// writeTo creates a file and hands it to fn.
func writeTo(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseMemory maps a flag value to a MemoryMode.
func parseMemory(s string) (gnumap.MemoryMode, error) {
	switch s {
	case "norm":
		return gnumap.MemNorm, nil
	case "chardisc":
		return gnumap.MemCharDisc, nil
	case "centdisc":
		return gnumap.MemCentDisc, nil
	default:
		return 0, fmt.Errorf("unknown -memory %q (want norm, chardisc, or centdisc)", s)
	}
}
