package gnumap

// Incremental calling overlapped with mapping (DESIGN.md §14). The
// mapping pipeline quiesces every writer at barriers — in one process,
// or at rank 0 once a read-split round has folded every rank's state —
// and an incremental run subscribes the pipeline's snp.IncrementalCaller
// to them, so provisional SNP calls are available while mapping is
// still running and Pipeline.Call reuses almost every tile sweep —
// time-to-first-call moves from "after mapping" to "during mapping".

import (
	"time"

	"gnumap/internal/core"
	"gnumap/internal/snp"
)

// IncrementalCallConfig configures Options.Incremental.
type IncrementalCallConfig struct {
	// EveryReads quiesces and re-sweeps after this many reads
	// (default 5000, the checkpoint default cadence).
	EveryReads int64
	// OnProvisional, when non-nil, receives every provisional call set
	// (calls valid until the next sweep; copy to retain) with the
	// pipeline's cumulative source watermark. It runs while the pipeline
	// is parked, so keep it cheap.
	OnProvisional func(calls []SNPCall, st CallStats, consumed int64)
}

// IncrementalStats reports how an incremental run's calling overlapped
// with its mapping (Pipeline.IncrementalStats).
type IncrementalStats struct {
	// FirstCallSeconds is the wall time from the start of the first
	// mapping call to the first provisional sweep that produced at least
	// one call — by construction earlier than mapping completion when
	// coverage arrives early enough (0 when no provisional sweep called
	// anything). FirstCallReads is the source watermark at that sweep.
	FirstCallSeconds float64
	FirstCallReads   int64
	// Sweeps / RegionsSwept / RegionsReused expose the incremental
	// cache behaviour: a region is one accumulator tile
	// (genome.TileSize positions), and reused counts tiles whose cached
	// candidates were still valid at a sweep.
	Sweeps, RegionsSwept, RegionsReused int64
}

// incrementalRun is a Pipeline's barrier sweeping: the pipeline's
// caller and the overlap accounting. Metrics (when enabled) gain
// call.first.seconds / call.first.reads gauges and call.inc.sweeps /
// call.inc.regions.swept / call.inc.regions.reused counters, which count
// the barrier sweeps (Pipeline.Call's own sweep shows in call.chunks).
type incrementalRun struct {
	cfg IncrementalCallConfig
	ic  *snp.IncrementalCaller
	reg *MetricsRegistry
	// start is when the first mapping call began; firstSeconds and
	// firstReads locate the first non-empty provisional call set.
	start        time.Time
	firstSeconds float64
	firstReads   int64
}

// newIncrementalRun hangs the pipeline's caller on its barriers.
func (p *Pipeline) newIncrementalRun() *incrementalRun {
	cfg := *p.opts.Incremental
	if cfg.EveryReads <= 0 {
		cfg.EveryReads = 5000
	}
	return &incrementalRun{cfg: cfg, ic: p.caller, reg: p.opts.Engine.Metrics}
}

// sweep re-sweeps the tiles written since the previous sweep. Writers
// must be quiesced.
func (r *incrementalRun) sweep() error {
	swept, reused := r.ic.RegionsSwept(), r.ic.RegionsReused()
	if err := r.ic.Sweep(); err != nil {
		return err
	}
	if r.reg != nil {
		r.reg.Counter("call.inc.sweeps").Inc()
		r.reg.Counter("call.inc.regions.swept").Add(r.ic.RegionsSwept() - swept)
		r.reg.Counter("call.inc.regions.reused").Add(r.ic.RegionsReused() - reused)
	}
	return nil
}

// subscriber hangs the sweep on a mapping run's quiesce barrier; base
// is the pipeline's watermark when the run started.
func (r *incrementalRun) subscriber(base int64) core.BarrierSubscriber {
	if r.start.IsZero() {
		r.start = time.Now()
	}
	return core.BarrierSubscriber{EveryReads: r.cfg.EveryReads, Run: func(b *core.Barrier) error {
		if err := r.sweep(); err != nil {
			return err
		}
		calls, st, err := r.ic.Provisional()
		if err != nil {
			return err
		}
		consumed := base + b.Consumed
		if len(calls) > 0 && r.firstSeconds == 0 {
			r.firstSeconds, r.firstReads = time.Since(r.start).Seconds(), consumed
			if r.reg != nil {
				r.reg.Gauge("call.first.seconds").Set(r.firstSeconds)
				r.reg.Gauge("call.first.reads").Set(float64(consumed))
			}
		}
		if r.cfg.OnProvisional != nil {
			r.cfg.OnProvisional(calls, st, consumed)
		}
		return nil
	}}
}

// IncrementalStats reports the overlap accounting of a pipeline built
// with Options.Incremental (the zero value otherwise).
func (p *Pipeline) IncrementalStats() IncrementalStats {
	r := p.inc
	if r == nil {
		return IncrementalStats{}
	}
	return IncrementalStats{
		FirstCallSeconds: r.firstSeconds, FirstCallReads: r.firstReads,
		Sweeps: r.ic.Sweeps(), RegionsSwept: r.ic.RegionsSwept(), RegionsReused: r.ic.RegionsReused(),
	}
}
