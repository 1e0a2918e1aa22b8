package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gnumap"
	"gnumap/internal/dna"
)

// The test binary doubles as the launcher, as the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == launchFlag {
		if err := launch(os.Args[2:]); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// A series in which most samples carry 20-60% of contention: best3 must
// still read the uncontended time, which the median misses by far.
func TestBest3OnContaminatedSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		v := make([]float64, 15)
		for i := range v {
			v[i] = 1 + 0.01*rng.Float64()
			if i >= 4 { // 11 of 15 samples contended
				v[i] *= 1.2 + 0.4*rng.Float64()
			}
		}
		rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
		if b := best3(v); b < 1 || b > 1.01 {
			t.Fatalf("trial %d: best3 = %.4f, want the clean level 1.00-1.01", trial, b)
		}
		if m := median(v); m < 1.15 {
			t.Fatalf("trial %d: median = %.4f; the series was meant to fool it", trial, m)
		}
	}
}

// Passes in which a third of the parts, never the same ones, carry
// 20-60% of contention: floorSum must read the clean wall, which no
// single pass shows.
func TestFloorSumOnContaminatedPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nparts, npasses = 80, 20
	clean := make([]float64, nparts)
	want := 0.0
	for j := range clean {
		clean[j] = 0.005 + 0.01*rng.Float64()
		want += clean[j]
	}
	rows := make([][]float64, npasses)
	var walls []float64
	for p := range rows {
		rows[p] = make([]float64, nparts)
		wall := 0.0
		for j := range rows[p] {
			rows[p][j] = clean[j] * (1 + 0.005*rng.Float64())
			if rng.Float64() < 0.33 {
				rows[p][j] *= 1.2 + 0.4*rng.Float64()
			}
			wall += rows[p][j]
		}
		walls = append(walls, wall)
	}
	if got := floorSum(rows); got < want || got > 1.005*want {
		t.Fatalf("floorSum = %.5f, want the clean wall %.5f", got, want)
	}
	if b := best3(walls); b < 1.08*want {
		t.Fatalf("best3 of the passes' walls = %.5f against a clean %.5f; the passes were meant to fool it", b, want)
	}
	if floorSum(nil) != 0 || floorSum([][]float64{{1, 2}, {1}}) != 0 {
		t.Fatal("no passes, or passes cut differently, must read 0")
	}
	if got := floorSum([][]float64{{3, 1}, {2, 2}}); got != 3 {
		t.Fatalf("floorSum = %v, want 2+1", got)
	}
}

func TestEstimatorsSmallInputs(t *testing.T) {
	if best3(nil) != 0 || median(nil) != 0 {
		t.Fatal("empty series must read 0")
	}
	if got := best3([]float64{3, 1}); got != 2 {
		t.Fatalf("best3 of two values = %v, want their mean", got)
	}
	if got := best3([]float64{9, 1, 5, 2, 3}); got != 2 {
		t.Fatalf("best3 = %v, want mean of 1,2,3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of four = %v", got)
	}
	in := []float64{3, 1, 2}
	best3(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Fatal("estimators must not reorder their input")
	}
}

// Every round visits every workload once, and over n rounds every
// workload takes every position once.
func TestRotation(t *testing.T) {
	const n = 4
	at := [n][n]int{}
	for round := 0; round < n; round++ {
		order := rotation(n, round)
		seen := map[int]bool{}
		for pos, w := range order {
			seen[w] = true
			at[w][pos]++
		}
		if len(order) != n || len(seen) != n {
			t.Fatalf("round %d order %v is not a permutation", round, order)
		}
	}
	for w := range at {
		for pos, c := range at[w] {
			if c != 1 {
				t.Fatalf("workload %d held position %d %d times in %d rounds", w, pos, c, n)
			}
		}
	}
	if !reflect.DeepEqual(rotation(n, n+1), rotation(n, 1)) {
		t.Fatal("rotation must wrap")
	}
}

// limitSource cuts one stream into slices without losing or repeating
// a read, and says when the stream itself has ended.
func TestLimitSource(t *testing.T) {
	reads := make([]*gnumap.Read, 5)
	for i := range reads {
		reads[i] = &gnumap.Read{Name: string(rune('a' + i))}
	}
	lim := &limitSource{src: gnumap.SliceReadSource(reads)}
	var got []string
	calls := 0
	for ; !lim.done; calls++ {
		lim.left = 2
		for {
			rd, err := lim.Next()
			if err != nil {
				break
			}
			got = append(got, rd.Name)
		}
	}
	if strings.Join(got, "") != "abcde" || calls != 3 {
		t.Fatalf("slices of 2 over 5 reads gave %q in %d calls", got, calls)
	}
}

func TestScoreAndParseVCF(t *testing.T) {
	vcf := "##fileformat=VCFv4.2\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\n" +
		"sim\t11\t.\tA\tG\t99.0\tPASS\tDP=12.00;LRT=50.000\n" + // planted, right allele
		"sim\t21\t.\tC\tA\t99.0\tPASS\tDP=12.00;LRT=50.000\n" + // planted, wrong allele
		"sim\t99\t.\tT\tC\t99.0\tPASS\tDP=12.00;LRT=50.000\n" // not planted
	calls, err := parseVCF([]byte(vcf))
	if err != nil || len(calls) != 3 {
		t.Fatalf("parseVCF: %v, %d calls", err, len(calls))
	}
	truth := []gnumap.TruthSNP{{Pos: 10, Ref: dna.A, Alt: dna.G}, {Pos: 20, Ref: dna.C, Alt: dna.T}, {Pos: 30, Ref: dna.G, Alt: dna.A}}
	if a := score(calls, truth); a != (accuracy{TP: 1, FP: 2, FN: 2}) {
		t.Fatalf("score = %+v", a)
	}
	if _, err := parseVCF([]byte("sim\t1\n")); err == nil {
		t.Fatal("a VCF without header or fields must not parse")
	}
	if sameCalls(calls, calls[:2]) || !sameCalls(calls, calls) {
		t.Fatal("sameCalls")
	}
}

func TestCompareSets(t *testing.T) {
	set := func(wall, rate float64) setResult {
		r := setResult{EndToEnd: map[string]map[string]float64{}}
		for _, w := range workloads {
			r.EndToEnd[w.Name] = map[string]float64{"wall_s": wall, "reads_per_s": rate}
		}
		return r
	}
	breaches := func(rows []comparison) (n int) {
		for _, c := range rows {
			if c.Breach {
				n++
			}
		}
		return n
	}
	if n := breaches(compareSets(set(1, 100), set(1.2, 83))); n != 0 {
		t.Fatalf("20%% worse is inside the 25%% bounds, got %d breaches", n)
	}
	// Slower and lower throughput both count as worse; faster never does.
	if n := breaches(compareSets(set(1, 100), set(1.3, 70))); n != 2*len(workloads) {
		t.Fatalf("30%% worse on two metrics: %d breaches, want %d", n, 2*len(workloads))
	}
	if n := breaches(compareSets(set(1, 100), set(0.5, 200))); n != 0 {
		t.Fatalf("an improvement is not a breach, got %d", n)
	}
}

// benchmarkJSON renders BENCHMARK.json from the tables in workloads.go.
func benchmarkJSON(t *testing.T) string {
	type jsonWorkload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []jsonWorkload `json:"workloads"`
		EndToEnd   []jsonMetric   `json:"end_to_end"`
		PerLayer   []jsonMetric   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, jsonWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		spec.EndToEnd = append(spec.EndToEnd, jsonMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, jsonMetric{d.Name, d.Unit, d.Better, nil})
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out) + "\n"
}

// BENCHMARK.json must be what the tables in workloads.go render to:
// the same command, workloads and metrics, with the same units,
// directions and bounds; and the tables must keep the contract's limits.
func TestBenchmarkJSONAgreesWithCode(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(t); string(got) != want {
		t.Errorf("BENCHMARK.json differs from the tables in workloads.go; they render to:\n%s", want)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	names := map[string]bool{}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v must be in (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if names[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		names[d.Name] = true
	}
}

// A run that exits 0 and reports its reads but writes no VCF must fail,
// not pass on the file the previous run left at the same path.
func TestRunCLIRejectsStaleOutput(t *testing.T) {
	dir := t.TempDir()
	fake := filepath.Join(dir, "fake-cli")
	if err := os.WriteFile(fake, []byte("#!/bin/sh\necho 'mapped 5/5 reads' >&2\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.vcf")
	if err := os.WriteFile(out, []byte("#CHROM\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := runCLI(fake, nil, out); err == nil {
		t.Fatalf("runCLI read back a VCF the run did not write: %q", r.VCF)
	}
}

// output runs the benchmark on 20 kbp genomes with its standard output
// captured and returns the result: the last line, or for -all the
// indented summary object that ends the output.
func output(t *testing.T, o options) string {
	t.Helper()
	var buf bytes.Buffer
	o.root, o.stdout, o.smoke, o.seed = "..", &buf, true, 1
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	text := strings.TrimSpace(buf.String())
	if o.all {
		return text[strings.LastIndex(text, "\n{\n")+1:]
	}
	return text[strings.LastIndex(text, "\n")+1:]
}

// The driver's mode on a 20 kbp genome, both trace settings: one result
// line with exactly the contract's keys and every metric of its list.
func TestSmokeOneWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs gnumap-snp")
	}
	for _, w := range []string{"unique-w1", "wide-k20-w1"} {
		for _, trace := range []bool{false, true} {
			line := output(t, options{workload: w, seconds: 1, trace: trace})
			var keys map[string]json.RawMessage
			var r result
			if err := json.Unmarshal([]byte(line), &keys); err != nil {
				t.Fatalf("last line is not JSON: %v\n%s", err, line)
			}
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 {
				t.Fatalf("result has %d keys, want correct, attempted, failed, metrics: %s", len(keys), line)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 3 {
				t.Fatalf("%s trace=%v: %+v", w, trace, r)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := r.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", w, trace, d.Name, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.Name, v.Value)
				}
			}
		}
	}
}

// The standalone mode on 20 kbp genomes: every workload, two rounds,
// traced runs that reconcile, a summary that ends in no claim.
func TestSmokeAll(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs gnumap-snp")
	}
	var sum struct {
		Sets  []setResult      `json:"sets"`
		Claim *json.RawMessage `json:"claim"`
	}
	if err := json.Unmarshal([]byte(output(t, options{all: true, rounds: 2})), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Claim != nil || len(sum.Sets) != 1 {
		t.Fatalf("claim %v, %d sets", sum.Claim, len(sum.Sets))
	}
	set := sum.Sets[0]
	if set.Failed != 0 || set.Attempted == 0 {
		t.Fatalf("%d of %d runs failed", set.Failed, set.Attempted)
	}
	for _, w := range workloads {
		if set.Passes[w.Name].N != 2 {
			t.Errorf("%s: %d passes, want 2", w.Name, set.Passes[w.Name].N)
		}
		for _, d := range endToEnd {
			if set.EndToEnd[w.Name][d.Name] <= 0 {
				t.Errorf("%s %s = %v", w.Name, d.Name, set.EndToEnd[w.Name][d.Name])
			}
		}
		if f := set.PerLayer[w.Name]["trace.span_sum_frac"]; math.Abs(f-1) > spanSumTolerance {
			t.Errorf("%s: spans sum to %v of the wall", w.Name, f)
		}
		// Layers that run in every workload must have measured something.
		for _, name := range []string{"fasta.parse_mb_per_s", "fastq.parse_ns_per_read", "pwm.fill_ns_per_read",
			"kmer.lookup_ns_per_read", "phmm.scalar_ns_per_cell", "phmm.cells_per_read", "core.map_cpu_s",
			"core.map_s", "core.parallel_eff", "core.wn_speedup", "genome.add_striped_ns_per_range",
			"snp.sweep_ns_per_pos", "snp.write_vcf_s", "snp.tp", "cli.wall_s", "host.contention_index"} {
			if set.PerLayer[w.Name][name] <= 0 {
				t.Errorf("%s %s = %v", w.Name, name, set.PerLayer[w.Name][name])
			}
		}
	}
	if set.PerLayer["unique-w1"]["cluster.send_bytes"] <= 0 || set.PerLayer["unique-w1"]["cluster.np2_speedup"] <= 0 ||
		set.PerLayer["repeats-w1"]["cluster.send_bytes"] != 0 {
		t.Error("cluster metrics must be measured on unique-w1's cluster leg and read 0 elsewhere")
	}
	if set.PerLayer["wide-k20-w1"]["kmer.open_s"] <= 0 || set.PerLayer["unique-w1"]["kmer.build_s"] <= 0 {
		t.Error("wide-k20-w1 opens its index, unique-w1 builds one")
	}
}
