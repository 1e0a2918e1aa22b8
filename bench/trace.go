package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gnumap"
	"gnumap/internal/kmer"
)

// span is one traced call into a layer: which call, which span caused
// it, and when, in nanoseconds since the tracer was created. Spans of
// one pass or leg share its Run number; the root span's name says which
// kind it was.
type span struct {
	ID, Parent int
	Run        int
	Name       string
	Start, End int64
}

// tracer keeps spans in memory; dump writes them when the benchmark
// ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its ID.
func (t *tracer) begin(run int, name string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Run: run, Name: name, Start: int64(time.Since(t.t0)),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

func (t *tracer) seconds(id int) float64 {
	return float64(t.spans[id].End-t.spans[id].Start) / 1e9
}

func (t *tracer) dump(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Root span names, by kind of run, and the names under them: the CLI's
// public calls, in the CLI's order.
const (
	spanPass         = "pass"
	spanPassRegistry = "pass+registry"
	spanParallelLeg  = "parallel-leg"
	spanClusterLeg   = "cluster-leg"

	spanLoadRef      = "gnumap.LoadReference"
	spanBuildIndex   = "gnumap.BuildSeedIndex"
	spanOpenIndex    = "gnumap.OpenSeedIndex"
	spanNewPipeline  = "gnumap.NewPipeline"
	spanMap          = "Pipeline.MapReadsFrom"
	spanCluster      = "gnumap.RunClusterStream"
	spanCall         = "Pipeline.Call"
	spanCoverage     = "Pipeline.CoverageStats"
	spanWriteVCF     = "writeVCF"
	spanWriteVCFPipe = "writeVCF/gnumap.NewPipeline"
	spanWriteVCFOut  = "writeVCF/Pipeline.WriteVCF"
)

// sliceReads is the slice length of the mapping stage. A pass maps the
// FASTQ in slices of this many reads, one MapReadsFrom call each over
// the same open file, so that the stage's time can be taken slice by
// slice (floorSum). A call costs about 0.14 ms to start (worker scratch
// is allocated per call), 1.2% of the 11 ms a slice takes; shorter
// slices would meet more quiet moments and distort more.
const sliceReads = 256

// limitSource hands the engine at most left reads of the source it
// wraps, then reports the end of the stream; done is set once the
// wrapped source itself has ended.
type limitSource struct {
	src  gnumap.ReadSource
	left int
	done bool
}

func (l *limitSource) Next() (*gnumap.Read, error) {
	if l.left == 0 {
		return nil, io.EOF
	}
	rd, err := l.src.Next()
	if err != nil {
		l.done = true
		return nil, err
	}
	l.left--
	return rd, nil
}

// driverRun is what one in-process pass of the pipeline produced: span
// durations by name, the work counts of the run's metrics registry, and
// the VCF it wrote.
type driverRun struct {
	Spans map[string]float64
	// Wall is the root span; SpanSum the sum of its direct children.
	Wall, SpanSum float64
	// Parts are the pass's top-level spans in order, with the mapping
	// span replaced by its slices, which are Parts[MapLo:MapHi]: what
	// floorSum takes the floors of.
	Parts        []float64
	MapLo, MapHi int
	// MapCPU is process CPU time spent inside the mapping span.
	MapCPU float64
	Report *gnumap.MetricsReport // nil with the registry off
	VCF    []byte
}

// drive makes, in this process, the public calls cmd/gnumap-snp makes
// for a single-process command line, in the same order, with a span
// around each. registry turns Options.Metrics on, which the CLI leaves
// off unless asked for -metrics-out; running once with and once
// without gives the tracing overhead. workers is 1 for the workload
// itself and N for the traced run's parallel leg (-workers N
// -accum-mode auto).
//
// One deliberate difference: for the default k the CLI builds the seed
// index inside NewPipeline, while the driver builds it with
// BuildSeedIndex and passes it in as Engine.SeedIndex, so that index
// build and pipeline construction get separate spans.
func (s *session) drive(registry bool, workers int) (*driverRun, error) {
	d, tr := s.d, s.tr
	out := &driverRun{Spans: map[string]float64{}}
	kind := spanPass
	switch {
	case workers > 1:
		kind = spanParallelLeg
	case registry:
		kind = spanPassRegistry
	}
	s.runs++
	run := s.runs
	root := tr.begin(run, kind, -1)
	var timed func(name string, parent int, f func(id int) error) error
	timed = func(name string, parent int, f func(id int) error) error {
		id := tr.begin(run, name, parent)
		err := f(id)
		tr.end(id)
		out.Spans[name] = tr.seconds(id)
		if parent == root {
			out.SpanSum += tr.seconds(id)
			if name != spanMap {
				out.Parts = append(out.Parts, tr.seconds(id))
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	var reference []*gnumap.Contig
	if err := timed(spanLoadRef, root, func(int) (err error) {
		reference, err = gnumap.LoadReference(d.Ref)
		return err
	}); err != nil {
		return nil, err
	}
	var opts gnumap.Options
	opts.Engine.Workers = workers
	opts.Engine.PhmmBatch = gnumap.DefaultPhmmBatch
	var reg *gnumap.MetricsRegistry
	if registry {
		reg = gnumap.NewMetricsRegistry()
	}
	if d.Index != "" {
		var ix *gnumap.LargeSeedIndex
		if err := timed(spanOpenIndex, root, func(int) (err error) {
			ix, err = gnumap.OpenSeedIndex(d.Index, reference)
			return err
		}); err != nil {
			return nil, err
		}
		defer ix.Close()
		opts.Engine.K = ix.K()
		opts.Engine.SeedIndex = ix
	} else {
		if err := timed(spanBuildIndex, root, func(int) (err error) {
			opts.Engine.SeedIndex, err = gnumap.BuildSeedIndex(reference, kmer.DefaultK)
			return err
		}); err != nil {
			return nil, err
		}
	}
	opts.Metrics = reg
	var p *gnumap.Pipeline
	if err := timed(spanNewPipeline, root, func(int) (err error) {
		p, err = gnumap.NewPipeline(reference, opts)
		return err
	}); err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	if err := timed(spanMap, root, func(int) error {
		src, err := gnumap.OpenReads(d.Reads, gnumap.Sanger)
		if err != nil {
			return err
		}
		defer src.Close()
		if workers > 1 {
			// The parallel leg is timed as one call, as the CLI makes it:
			// sharded accumulators are set up and merged per call.
			_, err := p.MapReadsFrom(src)
			return err
		}
		out.MapLo = len(out.Parts)
		for lim := (&limitSource{src: src}); !lim.done; {
			lim.left = sliceReads
			t0 := time.Now()
			if _, err := p.MapReadsFrom(lim); err != nil {
				return err
			}
			out.Parts = append(out.Parts, time.Since(t0).Seconds())
		}
		out.MapHi = len(out.Parts)
		return nil
	}); err != nil {
		return nil, err
	}
	out.MapCPU = selfCPU() - cpu0
	var calls []gnumap.SNPCall
	if err := timed(spanCall, root, func(int) (err error) {
		calls, _, err = p.Call()
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed(spanCoverage, root, func(int) error {
		p.CoverageStats()
		return nil
	}); err != nil {
		return nil, err
	}
	if registry {
		rep, err := gnumap.NewMetricsReport([]gnumap.MetricsSnapshot{reg.Snapshot(0)}, nil)
		if err != nil {
			return nil, err
		}
		out.Report = rep
	}
	// The CLI's writeVCF builds a second, default-option pipeline over
	// the reference just to reach WriteVCF; the driver does the same so
	// the span shows what that costs.
	path := filepath.Join(d.Dir, "driver.vcf")
	if err := timed(spanWriteVCF, root, func(wv int) error {
		var p2 *gnumap.Pipeline
		if err := timed(spanWriteVCFPipe, wv, func(int) (err error) {
			p2, err = gnumap.NewPipeline(reference, gnumap.Options{})
			return err
		}); err != nil {
			return err
		}
		return timed(spanWriteVCFOut, wv, func(int) error { return writeVCF(p2, calls, path) })
	}); err != nil {
		return nil, err
	}
	tr.end(root)
	out.Wall = tr.seconds(root)
	var err error
	if out.VCF, err = os.ReadFile(path); err != nil {
		return nil, err
	}
	return out, nil
}

func writeVCF(p *gnumap.Pipeline, calls []gnumap.SNPCall, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteVCF(f, calls); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// driveCluster is the traced run's cluster leg: the workload's files
// through clusterNodes simulated nodes, read-split, one worker each,
// with the registry on. The ranks load nothing and write nothing; the
// span is RunClusterStreamReport, and the calls go through writeVCF so
// that they can be held to the CLI's.
func (s *session) driveCluster() (*driverRun, error) {
	tr := s.tr
	out := &driverRun{Spans: map[string]float64{}}
	reference, err := gnumap.LoadReference(s.d.Ref)
	if err != nil {
		return nil, err
	}
	src, err := gnumap.OpenReads(s.d.Reads, gnumap.Sanger)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	var opts gnumap.Options
	opts.Engine.Workers = 1
	opts.Engine.PhmmBatch = gnumap.DefaultPhmmBatch
	s.runs++
	root := tr.begin(s.runs, spanClusterLeg, -1)
	id := tr.begin(s.runs, spanCluster, root)
	calls, _, rep, err := gnumap.RunClusterStreamReport(clusterNodes, gnumap.Channels, gnumap.ReadSplit, reference, src, opts)
	tr.end(id)
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spanCluster, err)
	}
	out.Spans[spanCluster], out.Report = tr.seconds(id), rep
	out.Wall, out.SpanSum = tr.seconds(id), tr.seconds(id)
	p, err := gnumap.NewPipeline(reference, gnumap.Options{})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(s.d.Dir, "cluster.vcf")
	if err := writeVCF(p, calls, path); err != nil {
		return nil, err
	}
	if out.VCF, err = os.ReadFile(path); err != nil {
		return nil, err
	}
	return out, nil
}

// Reconciliation limits: a traced run whose spans do not add up to its
// wall within spanSumTolerance is rejected; a CLI run that takes more
// than cliGapFlag longer than the driver is flagged, not failed, since
// the gap (process start, runtime initialisation, page faults of a
// fresh heap, exit) is real cost the spans cannot see.
const (
	spanSumTolerance = 0.02
	cliGapFlag       = 0.10
)

// pass makes one in-process pass with one worker, on the next CPU in
// turn, and holds it to the CLI's output and to its own arithmetic. The
// collector runs first, so that the previous pass's index and
// accumulators are not collected inside this one's spans; the heap
// itself is kept, which is why a pass pays no page faults for it and a
// fresh process does (trace.cli_gap_frac).
func (s *session) pass(registry bool) (*driverRun, error) {
	runtime.GC()
	var r *driverRun
	err := s.inTurn(&s.passTurn, func() (err error) {
		r, err = s.drive(registry, 1)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s pass (trace run %d): %w", s.w.Name, s.runs, err)
	}
	s.attempted++
	if err := s.checkDriver(r, true); err != nil {
		s.fail("in-process pass, trace", s.runs, err)
		return nil, nil
	}
	return r, nil
}

// legs is what the traced run measures beside the registry-on passes.
type legs struct {
	// Off are registry-off passes, which is what the CLI does.
	Off []*driverRun
	// Parallel are passes with N workers, Cluster one run on
	// clusterNodes simulated nodes (nil unless the workload asks).
	Parallel []*driverRun
	Cluster  *driverRun
	// ClusterCLI is the fastest real gnumap-snp -nodes run.
	ClusterCLI *rep
}

// traced is the --trace 1 mode. Until the deadline less the probes'
// and legs' share it makes rounds of a CLI run, a registry-on pass and
// a registry-off pass (at least three); then the parallel and cluster
// legs; then it replays reads through each layer's public functions
// (probes.go) and assembles the per-layer metrics.
func (s *session) traced(deadline time.Time) (map[string]float64, error) {
	const minRounds = 3
	var on []*driverRun
	var lg legs
	share := time.Until(deadline) / 2
	for n := 1; n <= minRounds || time.Until(deadline) > share; n++ {
		s.cliRep()
		r, err := s.pass(true)
		if err != nil {
			return nil, err
		}
		if r != nil {
			on = append(on, r)
		}
		if r, err = s.pass(false); err != nil {
			return nil, err
		}
		if r != nil {
			lg.Off = append(lg.Off, r)
		}
	}
	if len(on) == 0 || len(lg.Off) == 0 {
		return nil, fmt.Errorf("%s", s.failures[0])
	}
	for i := 0; i < minRounds; i++ {
		runtime.GC()
		r, err := s.drive(true, benchThreads())
		if err != nil {
			return nil, fmt.Errorf("%s parallel leg: %w", s.w.Name, err)
		}
		s.attempted++
		if err := s.checkDriver(r, false); err != nil {
			s.fail("parallel", i+1, err)
			continue
		}
		lg.Parallel = append(lg.Parallel, r)
	}
	if s.w.Cluster {
		runtime.GC()
		r, err := s.driveCluster()
		if err != nil {
			return nil, fmt.Errorf("%s cluster leg: %w", s.w.Name, err)
		}
		s.attempted++
		if err := s.checkDriver(r, false); err != nil {
			s.fail("cluster", 1, err)
		} else {
			lg.Cluster = r
		}
		args := append([]string{"-ref", s.d.Ref, "-reads", s.d.Reads}, clusterArgs()...)
		for i := 0; i < minRounds; i++ {
			r, err := runCLI(s.bin, args, filepath.Join(s.d.Dir, "cluster-cli.vcf"))
			s.attempted++
			var calls []vcfCall
			if err == nil {
				calls, err = parseVCF(r.VCF)
			}
			if err == nil && !sameCalls(calls, s.want) {
				err = fmt.Errorf("VCF has %d records, not the one-worker run's %d or not the same ones", len(calls), len(s.want))
			}
			if err != nil {
				s.fail("cluster CLI", i+1, err)
				continue
			}
			if lg.ClusterCLI == nil || r.Wall < lg.ClusterCLI.Wall {
				lg.ClusterCLI = &r
			}
		}
	}
	// kmer.build_s of a persisted index is its prepare run: three samples
	// with newSession's.
	for i := len(s.prep); s.d.Index != "" && i < minRounds; i++ {
		s.prepRep()
	}
	pr, err := s.probe()
	if err != nil {
		return nil, fmt.Errorf("%s probes: %w", s.w.Name, err)
	}
	return s.layerMetrics(on, lg, pr), nil
}

// checkDriver holds an in-process run to the CLI's output and to its
// own arithmetic: the VCF the CLI wrote — its bytes where exact is set
// (one worker in one process is deterministic), the same
// CHROM/POS/REF/ALT records otherwise (with several writers the float32
// sums are order-dependent) — and spans that sum to the wall.
func (s *session) checkDriver(r *driverRun, exact bool) error {
	if frac := r.SpanSum / r.Wall; frac < 1-spanSumTolerance || frac > 1+spanSumTolerance {
		return fmt.Errorf("spans sum to %.4f of the driver's wall, outside 1±%.2f", frac, spanSumTolerance)
	}
	calls, err := parseVCF(r.VCF)
	if err != nil {
		return err
	}
	if exact && !bytes.Equal(r.VCF, s.wantVCF) {
		return fmt.Errorf("driver VCF bytes differ from the CLI's")
	}
	if !sameCalls(calls, s.want) {
		return fmt.Errorf("driver VCF has %d records, the CLI's %d, or not the same ones", len(calls), len(s.want))
	}
	return nil
}
