package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x") != c {
		t.Fatal("Counter not idempotent per name")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("a").Add(1)
	r.Gauge("b").Set(1)
	r.Timer("c").Observe(1)
	r.Timer("c").ObserveDuration(time.Second)
	r.StartTimer("d")()
	s := r.Snapshot(3)
	if s.Rank != 3 || len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot = %+v", s)
	}
	if r.Counter("a").Value() != 0 || r.Gauge("b").Value() != 0 || r.Timer("c").Count() != 0 {
		t.Fatal("nil metrics returned non-zero values")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 500} {
		h.Observe(v)
	}
	s := r.Snapshot(0).Histograms["h"]
	want := []int64{2, 1, 1, 1}
	for i, c := range want {
		if s.Counts[i] != c {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], c, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-556.2) > 1e-9 {
		t.Fatalf("sum = %v, want 556.2", s.Sum)
	}
	if q := s.Quantile(0.5); q <= 0 || q > 10 {
		t.Fatalf("p50 = %v out of plausible range", q)
	}
	if q := s.Quantile(0.999); q != 100 {
		t.Fatalf("overflow-bucket quantile = %v, want lower bound 100", q)
	}
	if math.Abs(s.Mean()-556.2/5) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean())
	}
}

// TestConcurrentMergeSemantics hammers one registry from many
// goroutines while snapshots are taken concurrently, then checks the
// final snapshot accounts for every operation and that merging
// per-goroutine registries gives the same totals as one shared
// registry. Run under -race this is the registry's thread-safety gate.
func TestConcurrentMergeSemantics(t *testing.T) {
	const goroutines = 8
	const perG = 2000

	shared := NewRegistry()
	perGoroutine := make([]*Registry, goroutines)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshotter: must not race with writers.
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				shared.Snapshot(0)
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		perGoroutine[g] = NewRegistry()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := perGoroutine[g]
			for i := 0; i < perG; i++ {
				v := float64(i%7) * 1e-4
				for _, r := range []*Registry{shared, own} {
					r.Counter("ops").Inc()
					r.Timer("lat.seconds").Observe(v)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)

	want := int64(goroutines * perG)
	final := shared.Snapshot(0)
	if final.Counters["ops"] != want {
		t.Fatalf("shared ops = %d, want %d", final.Counters["ops"], want)
	}
	if final.Histograms["lat.seconds"].Count != want {
		t.Fatalf("shared hist count = %d, want %d", final.Histograms["lat.seconds"].Count, want)
	}

	snaps := make([]Snapshot, goroutines)
	for g := range perGoroutine {
		snaps[g] = perGoroutine[g].Snapshot(g)
	}
	merged, err := Merge(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Counters["ops"] != want {
		t.Fatalf("merged ops = %d, want %d", merged.Counters["ops"], want)
	}
	mh := merged.Histograms["lat.seconds"]
	sh := final.Histograms["lat.seconds"]
	if mh.Count != sh.Count || math.Abs(mh.Sum-sh.Sum) > 1e-6 {
		t.Fatalf("merged hist (%d, %v) != shared hist (%d, %v)", mh.Count, mh.Sum, sh.Count, sh.Sum)
	}
	for i := range mh.Counts {
		if mh.Counts[i] != sh.Counts[i] {
			t.Fatalf("bucket %d: merged %d != shared %d", i, mh.Counts[i], sh.Counts[i])
		}
	}
}

func TestMergeRejectsMismatchedBounds(t *testing.T) {
	a := NewRegistry()
	b := NewRegistry()
	a.Histogram("h", []float64{1, 2}).Observe(1)
	b.Histogram("h", []float64{1, 3}).Observe(1)
	if _, err := Merge(a.Snapshot(0), b.Snapshot(1)); err == nil {
		t.Fatal("merge of mismatched bounds succeeded")
	}
}

func TestMergeSumsGauges(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Gauge("mem").Set(10)
	b.Gauge("mem").Set(32)
	m, err := Merge(a.Snapshot(0), b.Snapshot(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Gauges["mem"] != 42 {
		t.Fatalf("merged gauge = %v, want 42", m.Gauges["mem"])
	}
}

func TestReportJSONRoundTripAndValidate(t *testing.T) {
	r0, r1 := NewRegistry(), NewRegistry()
	r0.Counter("map.mapped").Add(7)
	r0.Timer("map.read.seconds").Observe(0.01)
	r1.Counter("map.mapped").Add(5)
	r1.Timer("map.read.seconds").Observe(0.02)
	rep, err := NewReport([]Snapshot{r0.Snapshot(0), r1.Snapshot(1)}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReportJSON(buf.Bytes()); err != nil {
		t.Fatalf("fresh report failed validation: %v", err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Merged.Counters["map.mapped"] != 12 {
		t.Fatalf("round-tripped merged counter = %d, want 12", back.Merged.Counters["map.mapped"])
	}
	if len(back.DeadRanks) != 1 || back.DeadRanks[0] != 2 {
		t.Fatalf("dead ranks = %v, want [2]", back.DeadRanks)
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "map.read.seconds") || !strings.Contains(text.String(), "DEAD ranks [2]") {
		t.Fatalf("text summary missing expected content:\n%s", text.String())
	}
}

// TestReportTextHistogramUnits: the text summary prints a timer (a
// ".seconds" name) as durations and any other histogram as plain
// numbers, so a per-read candidate count never reads as seconds.
func TestReportTextHistogramUnits(t *testing.T) {
	reg := NewRegistry()
	reg.Timer("map.read.seconds").Observe(0.002)
	cands := reg.Histogram("map.candidates.per.read", CountBuckets)
	cands.Observe(15)
	cands.Observe(16)
	rep, err := NewReport([]Snapshot{reg.Snapshot(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(text.String(), "\n") {
		if f := strings.Fields(line); len(f) == 6 {
			rows[f[0]] = f[1:]
		}
	}
	if got, want := rows["map.read.seconds"], []string{"1", "2.00ms"}; len(got) != 5 || got[0] != want[0] || got[1] != want[1] || got[4] != want[1] {
		t.Errorf("timer row %v, want count %s, mean and total %s", got, want[0], want[1])
	}
	if got := rows["map.candidates.per.read"]; len(got) != 5 || got[0] != "2" || got[1] != "15.500" || got[4] != "31" {
		t.Errorf("count histogram row %v, want count 2, mean 15.500, total 31", got)
	}
}

func TestValidateReportJSONRejectsCorruption(t *testing.T) {
	r := NewRegistry()
	r.Timer("t.seconds").Observe(0.5)
	rep, err := NewReport([]Snapshot{r.Snapshot(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		break_ func(*Report)
	}{
		{"no-ranks", func(r *Report) { r.Ranks = nil }},
		{"no-timestamp", func(r *Report) { r.Generated = "" }},
		{"bad-timestamp", func(r *Report) { r.Generated = "yesterday" }},
		{"dup-rank", func(r *Report) { r.Ranks = append(r.Ranks, r.Ranks[0]) }},
		{"dead-and-reporting", func(r *Report) { r.DeadRanks = []int{0} }},
		{"hist-shape", func(r *Report) {
			h := r.Ranks[0].Histograms["t.seconds"]
			h.Counts = h.Counts[:1]
			r.Ranks[0].Histograms["t.seconds"] = h
		}},
		{"hist-total", func(r *Report) {
			h := r.Merged.Histograms["t.seconds"]
			h.Count += 3
			r.Merged.Histograms["t.seconds"] = h
		}},
	}
	for _, tc := range cases {
		var rep2 Report
		if err := json.Unmarshal(buf.Bytes(), &rep2); err != nil {
			t.Fatal(err)
		}
		tc.break_(&rep2)
		data, err := json.Marshal(&rep2)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateReportJSON(data); err == nil {
			t.Errorf("%s: corrupted report passed validation", tc.name)
		}
	}
	if err := ValidateReportJSON([]byte(`{"unknown_field": 1}`)); err == nil {
		t.Error("unknown fields passed validation")
	}
}
