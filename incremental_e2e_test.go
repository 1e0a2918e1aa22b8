package gnumap

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"gnumap/internal/genome"
	"gnumap/internal/qc"
	"gnumap/internal/snp"
)

// End-to-end identity: incremental calling overlapped with mapping must
// finish with exactly the calls of the map-then-call flow, while
// producing provisional results during mapping. Runs under -race in CI
// (make race covers the root package).
func TestIncrementalMappingIdentityE2E(t *testing.T) {
	ds := dataset(t)
	engCfg := EngineConfig{Workers: 4}
	caller := CallerConfig{UseFDR: true}

	p, err := NewPipeline(ds.Reference, Options{Engine: engCfg, Caller: caller})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MapReads(ds.Reads); err != nil {
		t.Fatal(err)
	}
	want, _, err := p.Call()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline called no SNPs; dataset too weak for an identity test")
	}

	reg := NewMetricsRegistry()
	incEng := engCfg
	incEng.Metrics = reg
	var provisional int
	ip, err := NewPipeline(ds.Reference, Options{Engine: incEng, Caller: caller, Incremental: &IncrementalCallConfig{
		EveryReads: 2_000,
		OnProvisional: func(calls []SNPCall, _ CallStats, _ int64) {
			if len(calls) > 0 {
				provisional++
			}
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ip.MapReadsFrom(SliceReadSource(ds.Reads))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mapped+stats.Unmapped != int64(len(ds.Reads)) {
		t.Fatalf("incremental stats cover %d reads, want %d", stats.Mapped+stats.Unmapped, len(ds.Reads))
	}
	got, _, err := ip.Call()
	if err != nil {
		t.Fatal(err)
	}
	sameCalls(t, "incremental", got, want)
	res := ip.IncrementalStats()

	// The overlap must actually happen: multiple sweeps, a first
	// provisional call strictly before the last read, and region reuse
	// once the early genome stops changing.
	if res.Sweeps < 2 {
		t.Errorf("only %d sweeps for %d reads at every-2000", res.Sweeps, len(ds.Reads))
	}
	if provisional == 0 {
		t.Error("no provisional call set ever surfaced during mapping")
	}
	if res.FirstCallReads <= 0 || res.FirstCallReads >= int64(len(ds.Reads)) {
		t.Errorf("first provisional call at %d reads, want inside (0, %d)", res.FirstCallReads, len(ds.Reads))
	}
	if res.FirstCallSeconds <= 0 {
		t.Errorf("FirstCallSeconds = %v, want > 0", res.FirstCallSeconds)
	}
	if g := reg.Gauge("call.first.reads").Value(); g != float64(res.FirstCallReads) {
		t.Errorf("call.first.reads gauge = %v, result says %d", g, res.FirstCallReads)
	}
}

// Satellite e2e for the parallel incremental sweep: a streaming run
// with incremental calling must produce byte-identical provisional AND
// final VCFs whether its tile sweeps run on one call worker or on four
// — the engine-level form of the identity TestIncrementalMatchesCallAll
// asserts. The sweeps take the vectorized path; its identity with the
// scalar loop is TestVectorSweepIdentityRandomized's and
// FuzzPrescreenVector's. Runs under -race in CI (make race covers the
// root package).
func TestIncrementalVectorVCFByteIdentityE2E(t *testing.T) {
	ds := dataset(t)
	run := func(callWorkers int) (provisional []string, final string) {
		t.Helper()
		p, err := NewPipeline(ds.Reference, Options{
			Engine:      EngineConfig{Workers: 1},
			Caller:      CallerConfig{UseFDR: true},
			callWorkers: callWorkers,
			Incremental: &IncrementalCallConfig{
				EveryReads: 2_000,
				OnProvisional: func(calls []SNPCall, _ CallStats, _ int64) {
					var buf bytes.Buffer
					if err := snp.WriteVCF(&buf, calls, "identity-e2e"); err != nil {
						t.Error(err)
						return
					}
					provisional = append(provisional, buf.String())
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.MapReadsFrom(SliceReadSource(ds.Reads)); err != nil {
			t.Fatal(err)
		}
		calls, _, err := p.Call()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := snp.WriteVCF(&buf, calls, "identity-e2e"); err != nil {
			t.Fatal(err)
		}
		return provisional, buf.String()
	}

	serialProv, serialFinal := run(1)
	parProv, parFinal := run(4)

	if parFinal != serialFinal {
		t.Errorf("final VCF diverges between 1 and 4 call workers:\n--- 1 ---\n%s\n--- 4 ---\n%s", serialFinal, parFinal)
	}
	if len(parProv) != len(serialProv) {
		t.Fatalf("provisional VCF counts diverge: 4 workers %d, 1 worker %d", len(parProv), len(serialProv))
	}
	var nonEmpty int
	for i := range serialProv {
		if parProv[i] != serialProv[i] {
			t.Errorf("provisional VCF %d diverges between 1 and 4 call workers", i)
		}
		if strings.Contains(serialProv[i], "\tPASS\t") {
			nonEmpty++
		}
	}
	if len(serialProv) < 2 || nonEmpty == 0 {
		t.Fatalf("identity test is vacuous: %d provisional VCFs, %d with calls", len(serialProv), nonEmpty)
	}
}

// Incremental calling composes with read-split: rank 0 folds every
// round's payloads through Merge, which moves the write counters of the
// tiles they reach, so the incremental caller there re-sweeps exactly
// what the whole cluster wrote. At 4 nodes — plain, fault-tolerant
// under seeded packet drops, and genome-split, whose ranks write their
// slices of the one accumulator — the final calls equal the
// single-process incremental run's, provisional sets surface during
// mapping, and tiles a round did not reach are reused. The reads stream in genome order,
// as from coordinate-sorted input, so a round writes a few tiles and
// leaves the rest alone.
func TestIncrementalReadSplitE2E(t *testing.T) {
	ds := dataset(t)
	reads := byOrigin(t, ds.Reads)
	run := func(t *testing.T, cc ClusterConfig) ([]SNPCall, IncrementalStats, int) {
		t.Helper()
		provisional := 0
		p, err := NewPipeline(ds.Reference, Options{
			Engine:  EngineConfig{Workers: 1},
			Caller:  CallerConfig{UseFDR: true},
			Cluster: cc,
			Incremental: &IncrementalCallConfig{
				EveryReads:    1_000,
				OnProvisional: func([]SNPCall, CallStats, int64) { provisional++ },
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.MapReadsFrom(SliceReadSource(reads))
		if err != nil {
			t.Fatal(err)
		}
		if st.Mapped+st.Unmapped != int64(len(reads)) {
			t.Fatalf("mapped %d reads of %d", st.Mapped+st.Unmapped, len(reads))
		}
		calls, _, err := p.Call()
		if err != nil {
			t.Fatal(err)
		}
		return calls, p.IncrementalStats(), provisional
	}
	want, _, _ := run(t, ClusterConfig{})
	if len(want) == 0 {
		t.Fatal("single-process run called no SNPs; dataset too weak for an identity test")
	}
	drops, err := ParseChaosSpec("seed=7,drop=0.01")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cc   ClusterConfig
	}{
		{"read-split", ClusterConfig{Nodes: 4}},
		// The failure detector heartbeats every tenth of the deadline: 25 ms.
		{"ft-read-split-drops", ClusterConfig{Nodes: 4, OpTimeout: 250 * time.Millisecond, Fault: &drops}},
		// Genome-split lands its boundary spills at the sweep's rounds,
		// so every sweep sees each slice complete.
		{"genome-split", ClusterConfig{Nodes: 4, Split: GenomeSplit}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, st, provisional := run(t, tc.cc)
			sameCalls(t, tc.name, got, want)
			if provisional < 2 {
				t.Errorf("%d provisional call sets surfaced, want at least 2", provisional)
			}
			if st.RegionsReused == 0 {
				t.Errorf("no tile reused across %d sweeps (%d swept)", st.Sweeps, st.RegionsSwept)
			}
		})
	}
}

// A plain Pipeline holds one caller for its whole life: Call, a second
// MapReads, and Call again gives exactly a fresh CallAll over the same
// state, and the second Call re-sweeps only the tiles the second batch
// wrote. The reads stream in genome order, so the second batch (the last
// quarter) reaches the tail tiles only.
func TestPipelineCallAfterMoreReads(t *testing.T) {
	ds := dataset(t)
	reads := byOrigin(t, ds.Reads)
	reg := NewMetricsRegistry()
	caller := CallerConfig{UseFDR: true}
	p, err := NewPipeline(ds.Reference, Options{Engine: EngineConfig{Workers: 1}, Caller: caller, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	cut := len(reads) * 3 / 4
	if _, err := p.MapReads(reads[:cut]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Call(); err != nil {
		t.Fatal(err)
	}
	tiles := (p.ReferenceLength() + genome.TileSize - 1) / genome.TileSize
	before := genome.Writes(p.acc, nil)
	firstWritten := 0
	for _, w := range before {
		if w != 0 {
			firstWritten++
		}
	}
	if got := reg.Counter("call.chunks").Value(); got != int64(firstWritten) {
		t.Fatalf("first Call swept %d tiles, want every tile with a nonzero write counter (%d of %d)", got, firstWritten, tiles)
	}
	if _, err := p.MapReads(reads[cut:]); err != nil {
		t.Fatal(err)
	}
	after := genome.Writes(p.acc, nil)
	written := 0
	for i := range after {
		if after[i] != before[i] {
			written++
		}
	}
	if written == 0 || written == tiles {
		t.Fatalf("second batch wrote %d of %d tiles; the test needs a strict subset", written, tiles)
	}
	got, gotSt, err := p.Call()
	if err != nil {
		t.Fatal(err)
	}
	if swept := reg.Counter("call.chunks").Value() - int64(firstWritten); swept != int64(written) {
		t.Errorf("second Call swept %d tiles, want the %d the second batch wrote", swept, written)
	}
	want, wantSt, err := snp.CallAll(p.ref, p.acc, caller)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("vacuous: no calls")
	}
	if !reflect.DeepEqual(got, want) || gotSt != wantSt {
		t.Errorf("second Call differs from CallAll on the same state: %d calls %+v, want %d %+v", len(got), gotSt, len(want), wantSt)
	}
}

// On a partially covered reference — reads from two stretches of it, so
// some tiles are never written — a pipeline's Call and CoverageStats
// equal the dense walks over the same state: the calls, Stats.Tested,
// call.tested and call.prescreened of one serial CollectRange over the
// whole accumulator plus FinalizeCalls, under the fixed cutoff, FDR and
// MinDepth < 0; and the coverage summary of the same bytes loaded into
// an accumulator whose every tile counts a write (LoadStateBytes marks
// them all), which SummarizeCoverage must read in full. Only the
// written tiles are swept, unless MinDepth < 0.
func TestPartialCoverageMatchesDenseWalks(t *testing.T) {
	ds := dataset(t)
	var reads []*Read
	for _, r := range ds.Reads {
		if pos := originOf(t, r); pos < 12_000 || pos >= 28_000 && pos < 31_000 {
			reads = append(reads, r)
		}
	}
	for _, c := range []struct {
		name   string
		caller CallerConfig
	}{
		{"fixed", CallerConfig{}},
		{"fdr", CallerConfig{UseFDR: true}},
		{"no-depth-filter", CallerConfig{MinDepth: -1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := NewMetricsRegistry()
			p, err := NewPipeline(ds.Reference, Options{Engine: EngineConfig{Workers: 1}, Caller: c.caller, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.MapReads(reads); err != nil {
				t.Fatal(err)
			}
			got, gotSt, err := p.Call()
			if err != nil {
				t.Fatal(err)
			}
			written, tiles := 0, 0
			for _, w := range genome.Writes(p.acc, nil) {
				tiles++
				if w != 0 {
					written++
				}
			}
			if written == 0 || written == tiles {
				t.Fatalf("the reads wrote %d of %d tiles; the test needs a strict subset", written, tiles)
			}

			dense := NewMetricsRegistry()
			cfg := c.caller
			cfg.Metrics = dense
			cands, st, err := snp.CollectRange(p.ref, p.acc, 0, p.ref.Len(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, wantSt, err := snp.FinalizeCalls(cands, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantSt.Tested = st.Tested
			if len(want) == 0 {
				t.Fatal("vacuous: no calls")
			}
			if !reflect.DeepEqual(got, want) || gotSt != wantSt {
				t.Fatalf("Call: %d calls %+v, dense sweep %d %+v", len(got), gotSt, len(want), wantSt)
			}
			for _, name := range []string{"call.tested", "call.prescreened"} {
				if g, w := reg.Counter(name).Value(), dense.Counter(name).Value(); g != w {
					t.Errorf("%s = %d, dense sweep %d", name, g, w)
				}
			}
			wantChunks := written
			if c.caller.MinDepth < 0 {
				wantChunks = tiles
			}
			if g := reg.Counter("call.chunks").Value(); g != int64(wantChunks) {
				t.Errorf("call.chunks = %d, want %d", g, wantChunks)
			}

			full, err := genome.CloneEmpty(p.acc)
			if err != nil {
				t.Fatal(err)
			}
			state, err := p.acc.State()
			if err != nil {
				t.Fatal(err)
			}
			if err := full.LoadStateBytes(state); err != nil {
				t.Fatal(err)
			}
			if cov, wantCov := p.CoverageStats(), qc.SummarizeCoverage(full, 64); !reflect.DeepEqual(cov, wantCov) {
				t.Errorf("CoverageStats %+v, dense walk %+v", cov, wantCov)
			}
			// The setup the run paid is timed: the in-process index
			// build and the coverage summary, once each.
			for _, name := range []string{"index.build.seconds", "qc.coverage.seconds"} {
				if n := reg.Timer(name).Count(); n != 1 {
					t.Errorf("%s observed %d times, want 1", name, n)
				}
			}
		})
	}
}

// byOrigin returns the reads sorted by the reference position they were
// sequenced from (the simulator names a read sim_<i>_pos<start>_...).
func byOrigin(t *testing.T, reads []*Read) []*Read {
	t.Helper()
	origin := make(map[*Read]int, len(reads))
	for _, r := range reads {
		origin[r] = originOf(t, r)
	}
	out := slices.Clone(reads)
	sort.SliceStable(out, func(a, b int) bool { return origin[out[a]] < origin[out[b]] })
	return out
}

// originOf returns the reference position read r was sequenced from.
func originOf(t *testing.T, r *Read) int {
	t.Helper()
	var i, pos int
	if _, err := fmt.Sscanf(r.Name, "sim_%d_pos%d_", &i, &pos); err != nil {
		t.Fatalf("read %q: %v", r.Name, err)
	}
	return pos
}

// Composition on the one quiesce barrier: a run with Options.Checkpoint
// and Options.Incremental both set — each subscriber on its own cadence
// — stopped mid-stream via StopRequested and resumed in a fresh
// pipeline yields a VCF byte-identical to an uninterrupted plain run at
// Workers=1, with provisional call sets surfacing on both sides of the
// stop.
func TestCheckpointIncrementalComposeResumeE2E(t *testing.T) {
	ds := dataset(t)
	opts := Options{Engine: EngineConfig{Workers: 1}, Caller: CallerConfig{UseFDR: true}}
	vcf := func(p *Pipeline) []byte {
		t.Helper()
		calls, _, err := p.Call()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteVCF(&buf, calls); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	plain, err := NewPipeline(ds.Reference, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.MapReadsFrom(SliceReadSource(ds.Reads)); err != nil {
		t.Fatal(err)
	}
	want := vcf(plain)
	if !bytes.Contains(want, []byte("\tPASS\t")) {
		t.Fatal("plain run called no SNPs; dataset too weak for an identity test")
	}

	ckPath := filepath.Join(t.TempDir(), "run.ckpt")
	half := int64(len(ds.Reads) / 2)
	leg := func(stopAt int64) (*Pipeline, *MetricsRegistry, *int, error) {
		t.Helper()
		reg := NewMetricsRegistry()
		provisional := new(int)
		o := opts
		o.Metrics = reg
		var seen int64
		o.Incremental = &IncrementalCallConfig{
			EveryReads: 1_000,
			OnProvisional: func(_ []SNPCall, _ CallStats, consumed int64) {
				*provisional++
				seen = consumed
			},
		}
		o.Checkpoint = &CheckpointConfig{
			Path: ckPath, EveryReads: 1_500, Resume: true,
			StopRequested: func() bool { return stopAt > 0 && seen >= stopAt },
		}
		p, err := NewPipeline(ds.Reference, o)
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.MapReadsFrom(SliceReadSource(ds.Reads))
		return p, reg, provisional, err
	}

	p1, reg1, prov1, err := leg(half)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("interrupted run returned %v, want ErrStopped", err)
	}
	watermark := p1.ReadsConsumed()
	if watermark < half || watermark >= int64(len(ds.Reads)) {
		t.Fatalf("stopped at watermark %d of %d reads", watermark, len(ds.Reads))
	}
	if *prov1 == 0 {
		t.Error("no provisional call set before the stop")
	}
	if w := reg1.Counter("ckpt.writes").Value(); w < 2 {
		t.Errorf("only %d checkpoint writes before the stop; the subscribers did not both run", w)
	}

	p2, _, prov2, err := leg(0)
	if err != nil {
		t.Fatal(err)
	}
	if *prov2 == 0 {
		t.Error("no provisional call set after the resume")
	}
	if p2.ReadsConsumed() != int64(len(ds.Reads)) {
		t.Errorf("resumed run consumed %d reads, want %d", p2.ReadsConsumed(), len(ds.Reads))
	}
	if got := vcf(p2); !bytes.Equal(got, want) {
		t.Errorf("checkpoint+incremental stop/resume VCF differs from the plain run:\n--- plain ---\n%s\n--- resumed ---\n%s", want, got)
	}
}

// Checkpoint fingerprints must not move under the zero-means-default,
// negative-means-disabled config convention: a zero caller config and
// its explicit defaults fingerprint identically, resolving is
// fingerprint-stable, and disabling a threshold (negative) is a real
// configuration change that does alter the fingerprint.
func TestFingerprintCallerConfigStability(t *testing.T) {
	ds := ckptDataset(t)
	ref, err := genome.NewReference(ds.Reference)
	if err != nil {
		t.Fatal(err)
	}

	zero := fingerprintFor(ref, Options{})
	explicit := fingerprintFor(ref, Options{Caller: CallerConfig{
		Alpha: 0.05, MinDepth: 2, MinHetMinorFraction: 0.25,
	}})
	if zero != explicit {
		t.Error("zero caller config and explicit defaults fingerprint differently")
	}

	neg := Options{Caller: CallerConfig{Alpha: -1, MinDepth: -3, MinHetMinorFraction: -0.5}}
	fp := fingerprintFor(ref, neg)
	resolved := neg
	resolved.Caller = neg.Caller.Resolved()
	if fp != fingerprintFor(ref, resolved) {
		t.Error("resolving a negative caller config moved its fingerprint")
	}
	if fp == zero {
		t.Error("disabled thresholds fingerprint like the defaults; resumes would silently change the call set")
	}
}
