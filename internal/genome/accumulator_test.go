package genome

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"gnumap/internal/dna"
)

func allModes() []Mode { return []Mode{Norm, CharDisc, CentDisc} }

func TestNewValidation(t *testing.T) {
	if _, err := New(Norm, 0); err == nil {
		t.Error("length 0 accepted")
	}
	if _, err := New(Mode(9), 10); err == nil {
		t.Error("unknown mode accepted")
	}
	for _, m := range allModes() {
		a, err := New(m, 100)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if a.Len() != 100 || a.Mode() != m {
			t.Errorf("%v: Len/Mode wrong", m)
		}
	}
}

func TestModeString(t *testing.T) {
	if Norm.String() != "NORM" || CharDisc.String() != "CHARDISC" || CentDisc.String() != "CENTDISC" {
		t.Error("mode names wrong")
	}
	if Mode(7).String() != "Mode(7)" {
		t.Error("unknown mode formatting wrong")
	}
}

func TestNormExactAccumulation(t *testing.T) {
	a, err := New(Norm, 10)
	if err != nil {
		t.Fatal(err)
	}
	zs := []Vec{{0.9, 0.1, 0, 0, 0}, {0, 0, 0.5, 0.5, 0}}
	a.AddRange(3, zs, 1.0)
	a.AddRange(3, zs, 0.5)
	fz := view(t, a)
	v := fz.Vector(3)
	if math.Abs(v[dna.ChA]-1.35) > 1e-6 || math.Abs(v[dna.ChC]-0.15) > 1e-6 {
		t.Errorf("pos 3 vector = %v", v)
	}
	v = fz.Vector(4)
	if math.Abs(v[dna.ChG]-0.75) > 1e-6 || math.Abs(v[dna.ChT]-0.75) > 1e-6 {
		t.Errorf("pos 4 vector = %v", v)
	}
	if fz.Total(0) != 0 {
		t.Error("untouched position has mass")
	}
	if got := fz.Total(3); math.Abs(got-1.5) > 1e-6 {
		t.Errorf("Total(3) = %v, want 1.5", got)
	}
}

func TestAddRangeClipping(t *testing.T) {
	for _, m := range allModes() {
		a, err := New(m, 5)
		if err != nil {
			t.Fatal(err)
		}
		zs := make([]Vec, 4)
		for i := range zs {
			zs[i] = Vec{1, 0, 0, 0, 0}
		}
		a.AddRange(-2, zs, 1) // covers -2..1, only 0..1 land
		a.AddRange(3, zs, 1)  // covers 3..6, only 3..4 land
		a.AddRange(50, zs, 1) // entirely outside
		for pos, want := range map[int]float64{0: 1, 1: 1, 2: 0, 3: 1, 4: 1} {
			got := view(t, a).Total(pos)
			if math.Abs(got-want) > 0.05 {
				t.Errorf("%v: Total(%d) = %v, want %v", m, pos, got, want)
			}
		}
	}
}

// All three modes should agree closely after a handful of updates to a
// lightly covered position.
func TestModesAgreeOnLightCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	accs := make([]Accumulator, 0, 3)
	for _, m := range allModes() {
		a, err := New(m, 50)
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, a)
	}
	for step := 0; step < 12; step++ {
		start := rng.Intn(30)
		zs := make([]Vec, 10)
		for i := range zs {
			// Each absolute position always receives the same dominant
			// base, as real coverage of a non-SNP site would; CENTDISC
			// is only expected to track such consistent signals (the
			// paper shows it collapses on anything else).
			base := (start + i) % 4
			zs[i][base] = 0.95
			zs[i][(base+1)%4] = 0.05
		}
		for _, a := range accs {
			a.AddRange(start, zs, 1)
		}
	}
	norm := view(t, accs[0]) // NORM is exact
	for pos := 0; pos < 50; pos++ {
		ref, total := norm.Vector(pos), norm.Total(pos)
		for _, a := range accs[1:] {
			v := view(t, a).Vector(pos)
			for k := 0; k < dna.NumChannels; k++ {
				// CHARDISC quantizes to total/255 units; CENTDISC to the
				// codebook, whose worst-case cell radius is larger.
				tol := 0.02*total + 0.15*total + 1e-6
				if math.Abs(v[k]-ref[k]) > tol {
					t.Errorf("%v pos %d ch %d: %v vs NORM %v (total %v)",
						a.Mode(), pos, k, v[k], ref[k], total)
				}
			}
		}
	}
}

func TestCharDiscFractionsSumAndReconstruct(t *testing.T) {
	a, err := New(CharDisc, 4)
	if err != nil {
		t.Fatal(err)
	}
	zs := []Vec{{0.9, 0.1, 0, 0, 0}}
	a.AddRange(1, zs, 1)
	v := view(t, a).Vector(1)
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Errorf("reconstructed sum = %v, want 1", sum)
	}
	if math.Abs(v[dna.ChA]-0.9) > 0.01 {
		t.Errorf("v[A] = %v, want ~0.9", v[dna.ChA])
	}
}

// The paper's saturation analysis: after 254 A's and one T, the T
// signal survives, but sub-1/255 contributions to a huge total vanish.
func TestCharDiscSaturation(t *testing.T) {
	a, err := New(CharDisc, 1)
	if err != nil {
		t.Fatal(err)
	}
	oneA := []Vec{{1, 0, 0, 0, 0}}
	oneT := []Vec{{0, 0, 0, 1, 0}}
	for i := 0; i < 254; i++ {
		a.AddRange(0, oneA, 1)
	}
	a.AddRange(0, oneT, 1)
	v := view(t, a).Vector(0)
	if v[dna.ChT] < 0.5 {
		t.Errorf("T signal lost at 255 coverage: %v", v)
	}
	// Push coverage to 2550: each new unit is less than half a
	// quantization step for the T channel, but largest-remainder
	// rounding keeps it alive approximately.
	for i := 0; i < 2295; i++ {
		a.AddRange(0, oneA, 1)
	}
	fz := view(t, a)
	v = fz.Vector(0)
	if got := fz.Total(0); got != 2550 {
		t.Fatalf("total = %v", got)
	}
	if v[dna.ChA] < 2500 {
		t.Errorf("A mass = %v, want ~2540", v[dna.ChA])
	}
}

// A contribution far smaller than one quantization unit is erased —
// the discretization failure mode the paper warns about.
func TestCharDiscTinyContributionVanishes(t *testing.T) {
	a, err := New(CharDisc, 1)
	if err != nil {
		t.Fatal(err)
	}
	big := []Vec{{1000, 0, 0, 0, 0}}
	a.AddRange(0, big, 1)
	tiny := []Vec{{0, 0.1, 0, 0, 0}} // 0.1/1000.1 << 1/255
	a.AddRange(0, tiny, 1)
	v := view(t, a).Vector(0)
	if v[dna.ChC] > 1 {
		// One quantization unit is total/255 ≈ 3.9; losing the 0.1 is
		// expected, gaining phantom mass > 1 unit is not.
		t.Errorf("C mass = %v after sub-unit addition", v[dna.ChC])
	}
}

func TestCentDiscPureBase(t *testing.T) {
	a, err := New(CentDisc, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a.AddRange(0, []Vec{{0, 1, 0, 0, 0}}, 1)
	}
	fz := view(t, a)
	v := fz.Vector(0)
	if v[dna.ChC] < 9 {
		t.Errorf("pure C accumulation = %v, want ~10 in C", v)
	}
	if got := fz.Total(0); got != 10 {
		t.Errorf("total = %v", got)
	}
}

func TestCentDiscTransitionMixtureResolved(t *testing.T) {
	// A 70/30 A/G mixture should land near a transition centroid.
	a, err := New(CentDisc, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a.AddRange(0, []Vec{{0.7, 0, 0.3, 0, 0}}, 1)
	}
	v := view(t, a).Vector(0)
	if math.Abs(v[dna.ChA]-7) > 1.0 || math.Abs(v[dna.ChG]-3) > 1.0 {
		t.Errorf("A/G mixture = %v, want ~(7,·,3,·,·)", v)
	}
}

func TestCodebookIsStochastic(t *testing.T) {
	cb := DefaultCodebook()
	for i := 0; i < codebookSize; i++ {
		c := cb.Centroid(uint8(i))
		sum := 0.0
		for _, x := range c {
			if x < -1e-12 {
				t.Fatalf("centroid %d has negative weight %v", i, x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("centroid %d sums to %v", i, sum)
		}
	}
}

func TestCodebookNearestIsIdempotent(t *testing.T) {
	cb := DefaultCodebook()
	for i := 0; i < codebookSize; i++ {
		c := cb.Centroid(uint8(i))
		n := cb.Nearest(&c, 1)
		// Duplicate centroids may shadow each other; require equal
		// distance, not equal index.
		cn := cb.Centroid(n)
		d := 0.0
		for k := range c {
			diff := c[k] - cn[k]
			d += diff * diff
		}
		if d > 1e-18 {
			t.Errorf("centroid %d maps to %d at distance %g", i, n, d)
		}
	}
}

func TestCodebookMergeTableMatchesDirect(t *testing.T) {
	cb := DefaultCodebook()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		i, j := uint8(rng.Intn(256)), uint8(rng.Intn(256))
		var avg Vec
		ci, cj := cb.Centroid(i), cb.Centroid(j)
		for k := range avg {
			avg[k] = (ci[k] + cj[k]) / 2
		}
		direct := cb.Centroid(cb.Nearest(&avg, 1))
		table := cb.Centroid(cb.MergeEqual(i, j))
		d := 0.0
		for k := range direct {
			diff := direct[k] - table[k]
			d += diff * diff
		}
		if d > 1e-18 {
			t.Errorf("merge table disagrees for (%d,%d)", i, j)
		}
	}
}

func TestMemoryOrdering(t *testing.T) {
	const L = 100000
	var mem [3]int64
	for i, m := range allModes() {
		a, err := New(m, L)
		if err != nil {
			t.Fatal(err)
		}
		mem[i] = a.MemoryBytes()
	}
	// Table II ordering: NORM > CHARDISC > CENTDISC.
	if !(mem[0] > mem[1] && mem[1] > mem[2]) {
		t.Errorf("memory ordering violated: NORM=%d CHARDISC=%d CENTDISC=%d", mem[0], mem[1], mem[2])
	}
	// NORM is 20 bytes/base exactly.
	if mem[0] != int64(L)*20 {
		t.Errorf("NORM bytes = %d, want %d", mem[0], L*20)
	}
	// CHARDISC is 9 bytes/base.
	if mem[1] != int64(L)*9 {
		t.Errorf("CHARDISC bytes = %d, want %d", mem[1], L*9)
	}
}

func TestMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, m := range allModes() {
		single, err := New(m, 64)
		if err != nil {
			t.Fatal(err)
		}
		partA, _ := New(m, 64)
		partB, _ := New(m, 64)
		for step := 0; step < 30; step++ {
			start := rng.Intn(60)
			zs := []Vec{{rng.Float64(), rng.Float64(), 0, 0, 0}}
			single.AddRange(start, zs, 1)
			if step%2 == 0 {
				partA.AddRange(start, zs, 1)
			} else {
				partB.AddRange(start, zs, 1)
			}
		}
		if err := partA.Merge(partB); err != nil {
			t.Fatalf("%v merge: %v", m, err)
		}
		fs, fm := view(t, single), view(t, partA)
		for pos := 0; pos < 64; pos++ {
			ts, tm := fs.Total(pos), fm.Total(pos)
			if math.Abs(ts-tm) > 1e-4*(1+ts) {
				t.Errorf("%v pos %d: merged total %v vs sequential %v", m, pos, tm, ts)
			}
			if m == Norm {
				vs, vm := fs.Vector(pos), fm.Vector(pos)
				for k := range vs {
					if math.Abs(vs[k]-vm[k]) > 1e-4 {
						t.Errorf("NORM pos %d ch %d: %v vs %v", pos, k, vm[k], vs[k])
					}
				}
			}
		}
	}
}

func TestMergeRejectsMismatch(t *testing.T) {
	a, _ := New(Norm, 10)
	b, _ := New(Norm, 20)
	if err := a.Merge(b); err == nil {
		t.Error("length mismatch accepted")
	}
	c, _ := New(CharDisc, 10)
	if err := a.Merge(c); err == nil {
		t.Error("mode mismatch accepted")
	}
}

func TestConcurrentAddRange(t *testing.T) {
	for _, m := range allModes() {
		a, err := New(m, 20000)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		workers := 8
		perWorker := 200
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				zs := make([]Vec, 60)
				for i := range zs {
					zs[i] = Vec{0.25, 0.25, 0.25, 0.25, 0}
				}
				for i := 0; i < perWorker; i++ {
					a.AddRange(rng.Intn(20000-60), zs, 1)
				}
			}(int64(w))
		}
		wg.Wait()
		// Total mass must be conserved exactly for NORM.
		if m == Norm {
			sum, fz := 0.0, view(t, a)
			for pos := 0; pos < 20000; pos++ {
				sum += fz.Total(pos)
			}
			want := float64(workers * perWorker * 60)
			if math.Abs(sum-want) > 1e-3*want {
				t.Errorf("mass after concurrent adds = %v, want %v", sum, want)
			}
		}
	}
}

// quantize invariants: outputs always sum to fracDenom for positive
// totals, and reconstruct within one quantization unit per channel.
func TestQuantizeProperty(t *testing.T) {
	f := func(a, b, c, d, e float64) bool {
		var v Vec
		total := 0.0
		for i, x := range []float64{a, b, c, d, e} {
			x = math.Abs(x)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			x = math.Mod(x, 1000)
			v[i] = x
			total += x
		}
		var out [5]uint8
		quantize(&v, total, out[:])
		sum := 0
		for _, x := range out {
			sum += int(x)
		}
		if total <= 0 {
			return sum == 0
		}
		if sum != fracDenom {
			return false
		}
		unit := total / fracDenom
		for k := range v {
			rec := total * float64(out[k]) / fracDenom
			if math.Abs(rec-v[k]) > unit+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEstimateBytes pins the per-position estimates against the real
// allocators (CentDisc adds a shared codebook on top of its 5 B/base).
func TestEstimateBytes(t *testing.T) {
	const L = 10_000
	for _, mode := range allModes() {
		acc, err := New(mode, L)
		if err != nil {
			t.Fatal(err)
		}
		est, real := EstimateBytes(mode, L), acc.MemoryBytes()
		if est > real {
			t.Errorf("%v: estimate %d exceeds real footprint %d", mode, est, real)
		}
		if real > est+512*1024 { // codebook & slack stay well under this
			t.Errorf("%v: estimate %d far below real footprint %d", mode, est, real)
		}
	}
}
