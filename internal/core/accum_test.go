package core

import (
	"math"
	"testing"

	"gnumap/internal/genome"
	"gnumap/internal/obs"
)

func TestParseAccumStrategy(t *testing.T) {
	cases := []struct {
		in   string
		want AccumStrategy
		err  bool
	}{
		{"auto", AccumAuto, false},
		{"", AccumAuto, false},
		{"striped", AccumStriped, false},
		{"Sharded", AccumSharded, false},
		{" STRIPED ", AccumStriped, false},
		{"bogus", AccumAuto, true},
	}
	for _, c := range cases {
		got, err := ParseAccumStrategy(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseAccumStrategy(%q): err = %v, want err %v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Errorf("ParseAccumStrategy(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, s := range []AccumStrategy{AccumAuto, AccumStriped, AccumSharded} {
		back, err := ParseAccumStrategy(s.String())
		if err != nil || back != s {
			t.Errorf("round-trip %v: got %v, %v", s, back, err)
		}
	}
}

func TestResolveAccumStrategyHeuristic(t *testing.T) {
	const L = 100_000 // NORM: 2 MB per copy
	cases := []struct {
		name string
		cfg  Config
		mode genome.Mode
		want AccumStrategy
	}{
		{"explicit striped wins", Config{Accum: AccumStriped, Workers: 8}, genome.Norm, AccumStriped},
		{"explicit sharded wins", Config{Accum: AccumSharded, Workers: 1}, genome.Norm, AccumSharded},
		{"single worker stays striped", Config{Workers: 1}, genome.Norm, AccumStriped},
		{"parallel within budget shards", Config{Workers: 8}, genome.Norm, AccumSharded},
		// 8 workers * NORM * 100k = (8+1)*2MB = 18 MB > 4 MB budget.
		{"budget exceeded stays striped", Config{Workers: 8, AccumMemBudget: 4 << 20}, genome.Norm, AccumStriped},
		// CHARDISC is 9 B/base: (8+1)*900KB = 8.1 MB > 4 MB.
		{"chardisc same budget still too big", Config{Workers: 8, AccumMemBudget: 4 << 20}, genome.CharDisc, AccumStriped},
		// CENTDISC is 5 B/base: (8+1)*500KB = 4.5 MB > 4MB; 5MB fits.
		{"centdisc fits larger budget", Config{Workers: 8, AccumMemBudget: 5 << 20}, genome.CentDisc, AccumSharded},
	}
	for _, c := range cases {
		cfg := c.cfg.withDefaults()
		if got := resolveAccumStrategy(c.mode, L, cfg); got != c.want {
			t.Errorf("%s: resolved %v, want %v", c.name, got, c.want)
		}
	}
}

func TestNewAccumulatorKindsAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{Workers: 4, Metrics: reg}
	acc, err := NewAccumulator(genome.Norm, 10_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := acc.(genome.ShardProvider); !ok {
		t.Fatalf("auto with 4 workers built %T, want sharded", acc)
	}
	if got := reg.Gauge("accum.mode").Value(); got != 1 {
		t.Errorf("accum.mode = %v, want 1 (sharded)", got)
	}

	reg2 := obs.NewRegistry()
	cfg2 := Config{Workers: 1, Metrics: reg2}
	acc2, err := NewAccumulator(genome.Norm, 10_000, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := acc2.(genome.ShardProvider); ok {
		t.Fatalf("single worker built sharded, want striped")
	}
	if got := reg2.Gauge("accum.mode").Value(); got != 0 {
		t.Errorf("accum.mode = %v, want 0 (striped)", got)
	}
}

func TestCombineAccumulatorPassThrough(t *testing.T) {
	striped, err := genome.New(genome.Norm, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CombineAccumulator(striped, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != striped {
		t.Fatal("striped accumulator must pass through unchanged")
	}
}

// TestMapReadsShardedMatchesStriped: the full engine over the same
// reads must produce equivalent mass whether workers share a striped
// accumulator or write private shards — and accum.merge.seconds /
// accum.shards must be published on the sharded run.
func TestMapReadsShardedMatchesStriped(t *testing.T) {
	p := makePipeline(t, 20_000, 6, 4, 42)
	cfg := Config{Workers: 4}

	eng, err := NewEngine(p.ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	striped, err := genome.New(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	stStriped, err := eng.MapReads(p.reads, striped, 0)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	scfg := cfg
	scfg.Metrics = reg
	engSh, err := NewEngine(p.ref, scfg)
	if err != nil {
		t.Fatal(err)
	}
	shardedAcc, err := genome.NewSharded(genome.Norm, p.ref.Len())
	if err != nil {
		t.Fatal(err)
	}
	stSharded, err := engSh.MapReads(p.reads, shardedAcc, 0)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := CombineAccumulator(shardedAcc, reg)
	if err != nil {
		t.Fatal(err)
	}

	if stStriped.Mapped != stSharded.Mapped || stStriped.Unmapped != stSharded.Unmapped ||
		stStriped.Locations != stSharded.Locations {
		t.Fatalf("stats diverge: striped %+v vs sharded %+v", stStriped, stSharded)
	}
	for pos := 0; pos < p.ref.Len(); pos += 101 {
		a, b := striped.Total(pos), combined.Total(pos)
		if math.Abs(a-b) > 1e-3*(1+a) {
			t.Fatalf("pos %d: striped %v vs sharded %v", pos, a, b)
		}
	}
	// A second combine (what CoverageStats does after Call) finds no
	// shards and must not zero the gauge.
	if _, err := CombineAccumulator(shardedAcc, reg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot(0)
	if snap.Gauges["accum.shards"] <= 0 {
		t.Errorf("accum.shards gauge not published: %v", snap.Gauges)
	}
	if h, ok := snap.Histograms["accum.merge.seconds"]; !ok || h.Count == 0 {
		t.Errorf("accum.merge.seconds not observed")
	}
}
