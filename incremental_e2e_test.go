package gnumap

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"gnumap/internal/genome"
	"gnumap/internal/snp"
)

// End-to-end identity: incremental calling overlapped with mapping must
// finish with exactly the calls of the map-then-call flow, while
// producing provisional results during mapping. Runs under -race in CI
// (make race covers the root package).
func TestIncrementalMappingIdentityE2E(t *testing.T) {
	ds := dataset(t)
	engCfg := EngineConfig{Workers: 4, Batch: 32, Queue: 2}
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

// Satellite e2e for the vectorized sweep: a streaming run with
// incremental calling must produce byte-identical provisional AND
// final VCFs whether the sweeps run the vectorized (CallVector 0) or
// scalar (CallVector -1) path — the engine-level form of the
// bit-identity the snp-package property harness asserts. Runs under
// -race in CI (make race covers the root package).
func TestIncrementalVectorVCFByteIdentityE2E(t *testing.T) {
	ds := dataset(t)
	run := func(callVector int) (provisional []string, final string) {
		t.Helper()
		caller := CallerConfig{UseFDR: true, CallVector: callVector}
		p, err := NewPipeline(ds.Reference, Options{
			Engine: EngineConfig{Workers: 4, Batch: 32, Queue: 2},
			Caller: caller,
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

	scalarProv, scalarFinal := run(-1)
	vectorProv, vectorFinal := run(0)

	if vectorFinal != scalarFinal {
		t.Errorf("final VCF diverges between vectorized and scalar sweeps:\n--- scalar ---\n%s\n--- vector ---\n%s", scalarFinal, vectorFinal)
	}
	if len(vectorProv) != len(scalarProv) {
		t.Fatalf("provisional VCF counts diverge: vector %d, scalar %d", len(vectorProv), len(scalarProv))
	}
	var nonEmpty int
	for i := range scalarProv {
		if vectorProv[i] != scalarProv[i] {
			t.Errorf("provisional VCF %d diverges between vectorized and scalar sweeps", i)
		}
		if strings.Contains(scalarProv[i], "\tPASS\t") {
			nonEmpty++
		}
	}
	if len(scalarProv) < 2 || nonEmpty == 0 {
		t.Fatalf("identity test is vacuous: %d provisional VCFs, %d with calls", len(scalarProv), nonEmpty)
	}
}

// Composition on the one quiesce barrier: a run with Options.Checkpoint
// and Options.Incremental both set — each subscriber on its own cadence
// — stopped mid-stream via StopRequested and resumed in a fresh
// pipeline yields a VCF byte-identical to an uninterrupted plain run at
// Workers=1, with provisional call sets surfacing on both sides of the
// stop.
func TestCheckpointIncrementalComposeResumeE2E(t *testing.T) {
	ds := dataset(t)
	opts := Options{Engine: EngineConfig{Workers: 1, Batch: 32, Queue: 2}, Caller: CallerConfig{UseFDR: true}}
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
