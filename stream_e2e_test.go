package gnumap

import (
	"path/filepath"
	"testing"
)

// End-to-end identity: the streaming pipeline (bounded memory, FASTQ
// file source) must produce exactly the SNP calls of the slice-based
// path, single-process and on a 4-node streamed cluster. Runs under
// -race in CI (make race covers the root package).

// sameCalls compares call sets by position and allele (scores are
// float-order sensitive and not part of the identity contract).
func sameCalls(t *testing.T, label string, got, want []SNPCall) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d calls, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].GlobalPos != want[i].GlobalPos || got[i].Allele != want[i].Allele {
			t.Fatalf("%s: call %d = %d/%v, want %d/%v",
				label, i, got[i].GlobalPos, got[i].Allele, want[i].GlobalPos, want[i].Allele)
		}
	}
}

func TestStreamingIdentityE2E(t *testing.T) {
	ds := dataset(t)
	fq := filepath.Join(t.TempDir(), "reads.fq")
	if err := WriteReads(fq, ds.Reads, Sanger); err != nil {
		t.Fatal(err)
	}
	engCfg := EngineConfig{Workers: 4, Batch: 32, Queue: 2}

	// Slice baseline.
	p, err := NewPipeline(ds.Reference, Options{Engine: engCfg})
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

	// np=1: stream the FASTQ file through the bounded pipeline, and
	// assert the acceptance bound via the observability gauge.
	reg := NewMetricsRegistry()
	streamCfg := engCfg
	streamCfg.Metrics = reg
	sp, err := NewPipeline(ds.Reference, Options{Engine: streamCfg})
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenReads(fq, Sanger)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sp.MapReadsFrom(src)
	if cerr := src.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mapped+stats.Unmapped != int64(len(ds.Reads)) {
		t.Fatalf("streaming stats cover %d reads, want %d", stats.Mapped+stats.Unmapped, len(ds.Reads))
	}
	peak := reg.Gauge("stream.peak.resident.reads").Value()
	if peak <= 0 {
		t.Fatal("stream.peak.resident.reads never set")
	}
	if limit := float64(engCfg.Workers * engCfg.Batch * engCfg.Queue); peak > limit {
		t.Errorf("reads in flight peaked at %v, above workers*batch*queue = %v", peak, limit)
	}
	got, _, err := sp.Call()
	if err != nil {
		t.Fatal(err)
	}
	sameCalls(t, "np=1 streaming", got, want)

	// np=4: rank 0 streams the file, shards are dealt round-robin.
	src4, err := OpenReads(fq, Sanger)
	if err != nil {
		t.Fatal(err)
	}
	calls4, st4, err := RunClusterStream(4, Channels, ReadSplit, ds.Reference, src4, Options{Engine: engCfg})
	if cerr := src4.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if st4.Mapped+st4.Unmapped != int64(len(ds.Reads)) {
		t.Fatalf("np=4 stats cover %d reads, want %d", st4.Mapped+st4.Unmapped, len(ds.Reads))
	}
	sameCalls(t, "np=4 streaming", calls4, want)
}

// countedSource counts the reads pulled from the source it wraps.
type countedSource struct {
	ReadSource
	pulled int
}

func (s *countedSource) Next() (*Read, error) {
	rd, err := s.ReadSource.Next()
	if err == nil {
		s.pulled++
	}
	return rd, err
}

// TestStreamingGenomeSplit: genome-split streams — rank 0 pulls the
// source once and broadcasts it a batch at a time, so no rank holds more
// than one batch however long the input — and still calls what one
// process calls. The slice indexes are sized from the reads seen so far:
// a read more than twice as long as any before it, arriving in the last
// batch and lying across a slice boundary, maps like the rest.
func TestStreamingGenomeSplit(t *testing.T) {
	ds := dataset(t)
	// 150 bases across the rank 0 / rank 1 boundary of a 3-node run (the
	// simulated reads are 62 long), read perfectly.
	ref := ds.Reference[0].Seq
	boundary := len(ref) / 3
	long := &Read{Name: "long", Seq: ref[boundary-100 : boundary+50], Qual: make([]uint8, 150)}
	for i := range long.Qual {
		long.Qual[i] = 40
	}
	reads := append(append([]*Read(nil), ds.Reads...), long)

	opts := Options{Engine: EngineConfig{Workers: 1}}
	p, err := NewPipeline(ds.Reference, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantSt, err := p.MapReads(ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := p.MapReads([]*Read{long}); err != nil || st.Mapped != 1 {
		t.Fatalf("the long read does not map in one process (%+v, %v); test is vacuous", st, err)
	}
	wantSt.Mapped++
	want, _, err := p.Call()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline called no SNPs; dataset too weak for an identity test")
	}

	for _, nodes := range []int{1, 3} {
		src := &countedSource{ReadSource: SliceReadSource(reads)}
		calls, st, report, err := RunClusterStreamReport(nodes, Channels, GenomeSplit, ds.Reference, src, opts)
		if err != nil {
			t.Fatalf("np=%d: %v", nodes, err)
		}
		sameCalls(t, "streamed genome-split", calls, want)
		if src.pulled != len(reads) {
			t.Errorf("np=%d: %d reads pulled from the source, want each of %d once", nodes, src.pulled, len(reads))
		}
		if st.Mapped != wantSt.Mapped || st.Unmapped != wantSt.Unmapped {
			t.Errorf("np=%d: mapped/unmapped %d/%d, one process %d/%d (long read lost at the boundary?)",
				nodes, st.Mapped, st.Unmapped, wantSt.Mapped, wantSt.Unmapped)
		}
		ranks := 0
		for _, snap := range report.Ranks {
			if snap.Rank < 0 {
				continue // process-wide I/O
			}
			ranks++
			if peak := snap.Gauges["stream.peak.resident.reads"]; peak <= 0 || peak > 256 {
				t.Errorf("np=%d rank %d held %v reads at once, want one batch (<= 256) of %d", nodes, snap.Rank, peak, len(reads))
			}
		}
		if ranks != nodes {
			t.Errorf("np=%d: report carries %d rank snapshots", nodes, ranks)
		}
	}
}

// TestStreamingReportCarriesStreamMetrics: the per-rank observability
// path must surface the streaming gauges in the merged report.
func TestStreamingReportCarriesStreamMetrics(t *testing.T) {
	ds := dataset(t)
	calls, _, report, err := RunClusterStreamReport(2, Channels, ReadSplit,
		ds.Reference, SliceReadSource(ds.Reads), Options{Engine: EngineConfig{Workers: 2, Batch: 32, Queue: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatal("no calls from streamed cluster run")
	}
	if report == nil {
		t.Fatal("no metrics report")
	}
	if n := report.Merged.Counters["stream.reads"]; n != int64(len(ds.Reads)) {
		t.Errorf("merged stream.reads = %d, want %d", n, len(ds.Reads))
	}
	if report.Merged.Gauges["stream.peak.resident.reads"] <= 0 {
		t.Error("merged report missing stream.peak.resident.reads")
	}
	// The state fold times itself as a collective, so the benchmark's
	// cluster.coll_s (the comm.coll.* sum) keeps measuring it.
	if h := report.Merged.Histograms["comm.coll.round.seconds"]; h.Count < 1 || h.Sum <= 0 {
		t.Errorf("merged report's comm.coll.round.seconds = %+v, want the final round timed", h)
	}
}
