package experiments

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gnumap/internal/core"
	"gnumap/internal/dna"
	"gnumap/internal/genome"
	"gnumap/internal/phmm"
	"gnumap/internal/pwm"
)

// PhmmBenchRow is one Pair-HMM kernel measurement, emitted by snpbench
// as machine-readable BENCH_phmm.json so successive PRs can track the
// kernel's trajectory (ns/cell, allocation behaviour, cells computed).
type PhmmBenchRow struct {
	// Name identifies the kernel variant (align_full, align_banded,
	// align_banded_narrow, align_batch, viterbi_full, viterbi_banded).
	Name string `json:"name"`
	// Mode is the alignment mode the variant ran in.
	Mode string `json:"mode"`
	// Band is the band width in DP cells (0 = full kernel).
	Band int `json:"band"`
	// Batch is the number of lanes one op aligns (0 = scalar kernel).
	Batch int `json:"batch,omitempty"`
	// Cells is the number of DP cells one op computes, summed over
	// lanes for the batched kernel.
	Cells int `json:"cells"`
	// NsPerOp and NsPerCell are wall time per op and per cell.
	NsPerOp   float64 `json:"ns_per_op"`
	NsPerCell float64 `json:"ns_per_cell"`
	// MCellsPerSec is throughput in millions of DP cells per second.
	MCellsPerSec float64 `json:"mcells_per_sec"`
	// Exact is set on batched rows after every lane's log-likelihood
	// was verified bit-identical to a scalar AlignBanded call on the
	// same pair; the benchmark hard-fails if any lane diverges.
	Exact bool `json:"exact,omitempty"`
	// AllocsPerOp and BytesPerOp come from the Go benchmark allocator
	// accounting; both must be 0 for a warm aligner.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// phmmBenchShape is the paper-shaped kernel input: 62-bp reads against
// 78-bp padded windows at seed diagonal 8 (the default Pad).
const (
	phmmBenchReadLen   = 62
	phmmBenchWindowLen = 78
	phmmBenchDiag      = 8
	phmmBenchBand      = 18 // the engine's auto band at the default Pad=8
)

// phmmBenchPairs builds L distinct read/window pairs of the bench shape
// from a fixed seed, each read a mutated slice of its window.
func phmmBenchPairs(L int) ([]*pwm.Matrix, []dna.Seq, error) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]*pwm.Matrix, L)
	ys := make([]dna.Seq, L)
	for l := 0; l < L; l++ {
		window := make(dna.Seq, phmmBenchWindowLen)
		for i := range window {
			window[i] = dna.Code(rng.Intn(4))
		}
		read := window[phmmBenchDiag : phmmBenchDiag+phmmBenchReadLen].Clone()
		at := 20 + l%20
		read[at] = dna.Code((int(read[at]) + 1) % 4)
		x, err := pwm.FromSeqUniformError(read, 0.01)
		if err != nil {
			return nil, nil, err
		}
		xs[l], ys[l] = x, window
	}
	return xs, ys, nil
}

// PhmmKernelBench benchmarks the PHMM kernel variants at the
// paper-shaped input using the standard library's benchmark runner:
// the scalar forward-backward and Viterbi kernels at several band
// widths, and the batched wavefront kernel at several batch sizes and
// band widths. Every batched variant is verified bit-exact against the
// scalar kernel (per-lane log-likelihoods compared with ==) before it
// is timed; a mismatch is a hard error, which is what the CI smoke
// asserts on.
func PhmmKernelBench() ([]PhmmBenchRow, error) {
	xs, ys, err := phmmBenchPairs(1)
	if err != nil {
		return nil, err
	}
	x, window := xs[0], ys[0]
	n, m := x.Len(), len(window)
	const diag = phmmBenchDiag

	scalars := []struct {
		name    string
		band    int
		viterbi bool
	}{
		{"align_full", 0, false},
		{"align_banded", phmmBenchBand, false},
		{"align_banded_narrow", 8, false},
		{"viterbi_full", 0, true},
		{"viterbi_banded", phmmBenchBand, true},
	}
	var rows []PhmmBenchRow
	for _, v := range scalars {
		a, err := phmm.NewAligner(phmm.DefaultParams(), phmm.SemiGlobal)
		if err != nil {
			return nil, err
		}
		// Warm the aligner's buffers so the measurement is steady-state.
		if v.viterbi {
			_, err = a.ViterbiBanded(x, window, diag, v.band)
		} else {
			_, err = a.AlignBanded(x, window, diag, v.band)
		}
		if err != nil {
			return nil, err
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v.viterbi {
					_, err = a.ViterbiBanded(x, window, diag, v.band)
				} else {
					_, err = a.AlignBanded(x, window, diag, v.band)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		rows = append(rows, phmmRow(v.name, v.band, 0, phmm.BandCells(n, m, diag, v.band), r, false))
	}

	// Batched wavefront kernel: batch sizes × band widths, each
	// verified bit-exact against the scalar kernel before timing.
	for _, band := range []int{phmmBenchBand, 8, 0} {
		for _, L := range []int{4, 8, 16} {
			row, err := phmmBatchRow(L, band)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// phmmBatchRow verifies the batched kernel against the scalar one on L
// fresh pairs, then times it warm.
func phmmBatchRow(L, band int) (PhmmBenchRow, error) {
	xs, ys, err := phmmBenchPairs(L)
	if err != nil {
		return PhmmBenchRow{}, err
	}
	scalar, err := phmm.NewAligner(phmm.DefaultParams(), phmm.SemiGlobal)
	if err != nil {
		return PhmmBenchRow{}, err
	}
	ba, err := phmm.NewBatchAligner(phmm.DefaultParams(), phmm.SemiGlobal)
	if err != nil {
		return PhmmBenchRow{}, err
	}
	const diag = phmmBenchDiag
	results, err := ba.AlignBatch(xs, ys, diag, band)
	if err != nil {
		return PhmmBenchRow{}, err
	}
	for l := range results {
		ref, err := scalar.AlignBanded(xs[l], ys[l], diag, band)
		if err != nil {
			return PhmmBenchRow{}, err
		}
		if results[l].Err != nil {
			return PhmmBenchRow{}, fmt.Errorf("experiments: batch lane %d failed where scalar aligned: %v", l, results[l].Err)
		}
		if results[l].LogLik != ref.LogLik {
			return PhmmBenchRow{}, fmt.Errorf("experiments: batch lane %d (L=%d band=%d) LogLik %v != scalar %v",
				l, L, band, results[l].LogLik, ref.LogLik)
		}
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ba.AlignBatch(xs, ys, diag, band); err != nil {
				b.Fatal(err)
			}
		}
	})
	cells := L * phmm.BandCells(xs[0].Len(), len(ys[0]), diag, band)
	return phmmRow("align_batch", band, L, cells, r, true), nil
}

// phmmRow converts one benchmark result into a report row.
func phmmRow(name string, band, batch, cells int, r testing.BenchmarkResult, exact bool) PhmmBenchRow {
	nsOp := float64(r.T.Nanoseconds()) / float64(r.N)
	nsCell := nsOp / float64(cells)
	return PhmmBenchRow{
		Name: name, Mode: phmm.SemiGlobal.String(), Band: band, Batch: batch,
		Cells: cells, NsPerOp: nsOp, NsPerCell: nsCell,
		MCellsPerSec: 1e3 / nsCell, Exact: exact,
		AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
	}
}

// PhmmEngineBenchRow is one end-to-end mapping measurement comparing
// the batched and scalar kernels through the full engine.
type PhmmEngineBenchRow struct {
	// Dataset names the reads mapped: "repeats" (several candidates a
	// read) or "unique" (one — lanes fill only by packing across reads).
	Dataset string `json:"dataset"`
	// Name identifies the configuration (engine_scalar, engine_batchN).
	Name string `json:"name"`
	// PhmmBatch is the Config.PhmmBatch value (-1 = scalar kernel).
	PhmmBatch int `json:"phmm_batch"`
	// Reads, Mapped, and Locations summarize the mapping outcome; they
	// must match across rows (checked by PhmmEngineBench).
	Reads     int   `json:"reads"`
	Mapped    int64 `json:"mapped"`
	Locations int64 `json:"locations"`
	// WallNs and ReadsPerSec measure end-to-end mapping throughput.
	WallNs      int64   `json:"wall_ns"`
	ReadsPerSec float64 `json:"reads_per_sec"`
}

// PhmmEngineBench maps the dataset (labelled name in the rows) once per
// kernel configuration — scalar, then each batch width in widths — and
// reports end-to-end reads/sec. Mapping outcomes (mapped reads, accepted
// locations) must be identical across configurations; a divergence is
// an error.
func PhmmEngineBench(ds *Dataset, name string, workers int, widths []int) ([]PhmmEngineBenchRow, error) {
	type config struct {
		name  string
		width int
	}
	configs := []config{{"engine_scalar", -1}}
	for _, w := range widths {
		if w >= 2 {
			configs = append(configs, config{fmt.Sprintf("engine_batch%d", w), w})
		}
	}
	var rows []PhmmEngineBenchRow
	for _, c := range configs {
		eng, err := core.NewEngine(ds.Ref, core.Config{Workers: workers, PhmmBatch: c.width})
		if err != nil {
			return nil, err
		}
		acc, err := genome.New(genome.Norm, ds.Ref.Len())
		if err != nil {
			return nil, err
		}
		start := time.Now()
		st, err := eng.MapReads(ds.Reads, acc, 0)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		rows = append(rows, PhmmEngineBenchRow{
			Dataset: name, Name: c.name, PhmmBatch: c.width,
			Reads: len(ds.Reads), Mapped: st.Mapped, Locations: st.Locations,
			WallNs:      wall.Nanoseconds(),
			ReadsPerSec: float64(len(ds.Reads)) / wall.Seconds(),
		})
	}
	for _, r := range rows[1:] {
		if r.Mapped != rows[0].Mapped || r.Locations != rows[0].Locations {
			return nil, fmt.Errorf("experiments: %s/%s mapping outcome (%d mapped, %d locations) diverges from scalar (%d, %d)",
				name, r.Name, r.Mapped, r.Locations, rows[0].Mapped, rows[0].Locations)
		}
	}
	return rows, nil
}
