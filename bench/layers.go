package main

import (
	"fmt"
	"math"
	"os"
	"strings"

	"gnumap/internal/genome"
)

// layerMetrics assembles the per-layer metrics of one workload from its
// registry-on passes (part floors, span minima and the metrics report's
// work counts), the traced run's legs, the probes and the CLI runs made
// in the same window.
func (s *session) layerMetrics(on []*driverRun, lg legs, pr *probeResult) map[string]float64 {
	minOver := func(runs []*driverRun, f func(*driverRun) float64) float64 {
		if len(runs) == 0 {
			return 0
		}
		best := math.Inf(1)
		for _, r := range runs {
			best = math.Min(best, f(r))
		}
		return best
	}
	minOf := func(f func(*driverRun) float64) float64 { return minOver(on, f) }
	spanMin := func(name string) float64 { return minOf(func(r *driverRun) float64 { return r.Spans[name] }) }
	histSum := func(runs []*driverRun, name string) float64 {
		return minOver(runs, func(r *driverRun) float64 { return r.Report.Merged.Histograms[name].Sum })
	}
	// Work counts repeat exactly from run to run; take the last run's.
	last := on[len(on)-1]
	counter := func(name string) float64 { return float64(last.Report.Merged.Counters[name]) }
	gauge := func(name string) float64 { return last.Report.Merged.Gauges[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// The mapping stage's time is the floor sum of its slices, as in
	// wall_s.
	mapS := floorSum(mapParts(on))

	reads := float64(s.d.NReads)
	cells := counter("phmm.cells")
	locations := counter("map.locations")
	m := map[string]float64{
		"fastq.parse_ns_per_read": pr.FastqNsPerRead,
		"fastq.parse_mb_per_s":    pr.FastqMBPerS,
		"pwm.fill_ns_per_read":    pr.PwmNsPerRead,

		"kmer.build_s":             spanMin(spanBuildIndex),
		"kmer.open_s":              spanMin(spanOpenIndex),
		"kmer.index_mb":            gauge("index.bytes") / (1 << 20),
		"kmer.lookup_ns_per_read":  pr.LookupNsPerRead,
		"kmer.seed_hits_per_read":  pr.HitsPerRead,
		"kmer.masked_per_read":     pr.MaskedPerRead,
		"kmer.candidates_per_read": pr.CandsPerRead,

		"phmm.batch_ns_per_cell":   pr.BatchNsPerCell,
		"phmm.scalar_ns_per_cell":  pr.ScalarNsPerCell,
		"phmm.gcups":               ratio(cells, histSum(on, "map.align.seconds")) / 1e9,
		"phmm.cells_per_read":      cells / reads,
		"phmm.alignments_per_read": counter("map.alignments") / reads,

		"core.new_pipeline_s":     spanMin(spanNewPipeline),
		"core.map_s":              mapS,
		"core.map_cpu_s":          minOf(func(r *driverRun) float64 { return r.MapCPU }),
		"core.locations_per_read": locations / reads,

		"genome.alloc_s":                  pr.AllocS,
		"genome.acc_mb":                   float64(genome.EstimateBytes(genome.Norm, s.d.RefLen)) / (1 << 20),
		"genome.add_striped_ns_per_range": pr.AddStripedNs,
		"genome.add_shard_ns_per_range":   pr.AddShardNs,
		"genome.freeze_s":                 pr.FreezeS,
		"genome.state_encode_s":           pr.EncodeS,
		"genome.state_decode_s":           pr.DecodeS,

		"snp.call_s":      spanMin(spanCall),
		"snp.finalize_s":  histSum(on, "call.finalize.seconds"),
		"snp.write_vcf_s": spanMin(spanWriteVCF),
		"snp.tested":      counter("call.tested"),
		"snp.prescreened": counter("call.prescreened"),
		"snp.calls":       counter("call.snps"),
		"qc.coverage_s":   spanMin(spanCoverage),
	}
	if st, err := os.Stat(s.d.Ref); err == nil {
		m["fasta.parse_mb_per_s"] = ratio(float64(st.Size())/1e6, spanMin(spanLoadRef))
	}
	if len(s.prep) > 0 {
		// A persisted index is built by the prepare run, a process of its
		// own (start, FASTA parse, build, write), not by the driver.
		m["kmer.build_s"] = sorted(s.prep)[0]
	}
	// The parallel sweep times its chunks, the serial sweep the whole
	// collect pass.
	sweep := histSum(on, "call.sweep.seconds")
	if sweep == 0 {
		sweep = histSum(on, "call.collect.seconds")
	}
	m["snp.sweep_ns_per_pos"] = sweep * 1e9 / float64(s.d.RefLen)

	// The parallel leg: N workers, sharded accumulation where auto picks
	// it, one shard per worker folded into the base.
	if par := lg.Parallel; len(par) > 0 {
		n := float64(benchThreads())
		parMap := minOver(par, func(r *driverRun) float64 { return r.Spans[spanMap] })
		m["core.parallel_eff"] = ratio(minOver(par, func(r *driverRun) float64 { return r.MapCPU }), parMap*n)
		m["core.wn_speedup"] = ratio(mapS, parMap)
		m["genome.merge_s"] = histSum(par, "accum.merge.seconds")
		if par[0].Report.Merged.Gauges["accum.mode"] == 1 {
			// (The registry's accum.shards gauge reads 0 by now:
			// CoverageStats combines a second time, after the shards were
			// released.)
			bytes := n * float64(genome.EstimateBytes(genome.Norm, s.d.RefLen))
			m["genome.merge_gb_per_s"] = ratio(bytes/1e9, m["genome.merge_s"])
		}
	}
	// The cluster leg: counts and the collectives' time from the
	// in-process run's registry, the speed-up from real CLI runs.
	if c := lg.Cluster; c != nil {
		m["cluster.run_s"] = c.Spans[spanCluster]
		m["cluster.send_bytes"] = float64(c.Report.Merged.Counters["comm.send.bytes"])
		m["cluster.send_count"] = float64(c.Report.Merged.Counters["comm.send.count"])
		for name, h := range c.Report.Merged.Histograms {
			if strings.HasPrefix(name, "comm.coll.") {
				m["cluster.coll_s"] += h.Sum
			}
		}
	}

	// Mapping CPU the probes account for: per-read parse, PWM and seed
	// lookup, per-cell kernel cost split by the replay's kernel shares,
	// per-location accumulator write.
	explained := reads*(pr.FastqNsPerRead+pr.PwmNsPerRead+pr.LookupNsPerRead) +
		cells*(pr.ScalarCellFrac*pr.ScalarNsPerCell+(1-pr.ScalarCellFrac)*pr.BatchNsPerCell) +
		locations*pr.AddStripedNs
	if cpu := m["core.map_cpu_s"]; cpu > 0 {
		m["core.map_unattributed_frac"] = 1 - explained/1e9/cpu
	}

	if calls, err := parseVCF(last.VCF); err == nil {
		a := score(calls, s.d.Truth)
		m["snp.tp"], m["snp.fp"], m["snp.fn"] = float64(a.TP), float64(a.FP), float64(a.FN)
	}

	// Reconciliation. The span sum reported is the run's that strays
	// furthest from 1 (each run was already checked against the
	// tolerance); the tracing overhead compares the floor sums of the
	// passes with the registry on and off; the CLI gap compares the
	// fastest CLI run of this window with the fastest registry-off
	// pass, which does what the CLI does.
	m["trace.span_sum_frac"] = 1
	for _, r := range on {
		if f := r.SpanSum / r.Wall; math.Abs(f-1) > math.Abs(m["trace.span_sum_frac"]-1) {
			m["trace.span_sum_frac"] = f
		}
	}
	onWalls := make([]float64, len(on))
	for i, r := range on {
		onWalls[i] = r.Wall
	}
	m["host.contention_index"] = ratio(median(onWalls), floorSum(parts(on)))
	m["trace.overhead_frac"] = ratio(floorSum(parts(on)), floorSum(parts(lg.Off))) - 1
	off := minOver(lg.Off, func(r *driverRun) float64 { return r.Wall })
	if walls := s.cliWalls(); len(walls) > 0 {
		cli := sorted(walls)[0]
		m["cli.wall_s"] = best3(walls)
		m["cli.cpu_s"] = best3(s.cliCPUs())
		m["trace.cli_gap_frac"] = (cli - off) / cli
		if gap := m["trace.cli_gap_frac"]; gap > cliGapFlag {
			s.notes = append(s.notes, fmt.Sprintf("%s: CLI run takes %.3fs, the in-process pass %.3fs: %.0f%% of the CLI's wall is outside the spans (process start, runtime initialisation, page faults of a fresh heap, exit)",
				s.w.Name, cli, off, 100*gap))
		}
		if lg.ClusterCLI != nil {
			m["cluster.np2_speedup"] = ratio(cli, lg.ClusterCLI.Wall)
		}
	}
	return m
}
