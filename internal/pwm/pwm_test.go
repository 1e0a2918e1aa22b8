package pwm

import (
	"math"
	"testing"
	"testing/quick"

	"gnumap/internal/dna"
	"gnumap/internal/fastq"
)

func newRead(t *testing.T, seq string, qual ...uint8) *fastq.Read {
	t.Helper()
	s, err := dna.ParseSeq(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(qual) != len(s) {
		t.Fatalf("test bug: %d quals for %d bases", len(qual), len(s))
	}
	return &fastq.Read{Name: "r", Seq: s, Qual: qual}
}

func TestFromReadWeights(t *testing.T) {
	r := newRead(t, "AC", 10, 20) // e = 0.1, 0.01
	m, err := FromRead(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Prob(0, dna.A); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("P(A at 0) = %g, want 0.9", got)
	}
	if got := m.Prob(0, dna.C); math.Abs(got-0.1/3) > 1e-12 {
		t.Errorf("P(C at 0) = %g, want %g", got, 0.1/3)
	}
	if got := m.Prob(1, dna.C); math.Abs(got-0.99) > 1e-12 {
		t.Errorf("P(C at 1) = %g, want 0.99", got)
	}
}

func TestFromReadNIsUniform(t *testing.T) {
	m, err := FromRead(newRead(t, "N", 40))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < dna.NumBases; k++ {
		if got := m.Prob(0, dna.Code(k)); math.Abs(got-0.25) > 1e-12 {
			t.Errorf("P(%v) = %g, want 0.25", dna.Code(k), got)
		}
	}
}

func TestRowsSumToOneProperty(t *testing.T) {
	f := func(bases []byte, quals []byte) bool {
		n := len(bases)
		if len(quals) < n {
			n = len(quals)
		}
		if n == 0 {
			return true
		}
		seq := make(dna.Seq, n)
		q := make([]uint8, n)
		for i := 0; i < n; i++ {
			seq[i] = dna.Code(bases[i] % 5)
			q[i] = quals[i] % (fastq.MaxQuality + 1)
		}
		m, err := FromRead(&fastq.Read{Name: "p", Seq: seq, Qual: q})
		if err != nil {
			return false
		}
		for i := 0; i < m.Len(); i++ {
			sum := 0.0
			for k := 0; k < dna.NumBases; k++ {
				sum += m.Prob(i, dna.Code(k))
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromReadRejectsInvalid(t *testing.T) {
	if _, err := FromRead(&fastq.Read{Name: "x"}); err == nil {
		t.Error("empty read must be rejected")
	}
}

func TestFromSeqUniformError(t *testing.T) {
	s := dna.MustParseSeq("AG")
	m, err := FromSeqUniformError(s, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Prob(0, dna.A); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("P(A) = %g, want 0.7", got)
	}
	if got := m.Prob(1, dna.C); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("P(C) = %g, want 0.1", got)
	}
	// e=0 gives one-hot.
	m0, _ := FromSeqUniformError(s, 0)
	if m0.Prob(0, dna.A) != 1 || m0.Prob(0, dna.C) != 0 {
		t.Error("e=0 must produce one-hot rows")
	}
	if _, err := FromSeqUniformError(s, 1.0); err == nil {
		t.Error("e=1 must be rejected")
	}
	if _, err := FromSeqUniformError(s, -0.1); err == nil {
		t.Error("negative e must be rejected")
	}
}

func TestCalls(t *testing.T) {
	m, err := FromRead(newRead(t, "ACGN", 30, 30, 30, 30))
	if err != nil {
		t.Fatal(err)
	}
	if m.Call(0) != dna.A || m.Call(2) != dna.G || m.Call(3) != dna.N {
		t.Errorf("calls wrong: %v", m.Calls())
	}
	if m.Len() != 4 {
		t.Errorf("Len = %d, want 4", m.Len())
	}
}

func TestReverseComplement(t *testing.T) {
	m, err := FromRead(newRead(t, "AC", 10, 20))
	if err != nil {
		t.Fatal(err)
	}
	rc := m.ReverseComplement()
	if rc.Calls().String() != "GT" {
		t.Errorf("rc calls = %q, want GT", rc.Calls().String())
	}
	// Position 0 of rc corresponds to position 1 of the original (C,
	// e=0.01) complemented to G.
	if got := rc.Prob(0, dna.G); math.Abs(got-0.99) > 1e-12 {
		t.Errorf("rc P(G at 0) = %g, want 0.99", got)
	}
	if got := rc.Prob(1, dna.T); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("rc P(T at 1) = %g, want 0.9", got)
	}
	// Double reverse-complement is the identity.
	back := rc.ReverseComplement()
	for i := 0; i < m.Len(); i++ {
		for k := 0; k < dna.NumBases; k++ {
			if math.Abs(back.Prob(i, dna.Code(k))-m.Prob(i, dna.Code(k))) > 1e-12 {
				t.Fatalf("double RC not identity at (%d,%d)", i, k)
			}
		}
	}
}

func TestProbNonConcrete(t *testing.T) {
	m, err := FromRead(newRead(t, "A", 30))
	if err != nil {
		t.Fatal(err)
	}
	if m.Prob(0, dna.N) != 0 {
		t.Error("Prob of N must be 0")
	}
}

// TestFillReuseMatchesAllocating: the in-place Fill* methods must
// reproduce their allocating wrappers and reuse storage across calls of
// varying length without leaking previous state.
func TestFillReuseMatchesAllocating(t *testing.T) {
	var m, rc Matrix
	seqs := []string{"ACGTACGTAC", "TTNAC", "GGGGCCCCAAAATTTT", "AT"}
	for _, s := range seqs {
		qual := make([]uint8, len(s))
		for i := range qual {
			qual[i] = uint8(10 + 3*i)
		}
		rd := newRead(t, s, qual...)
		want, err := FromRead(rd)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.FillFromRead(rd); err != nil {
			t.Fatal(err)
		}
		if m.Len() != want.Len() {
			t.Fatalf("%q: Len %d vs %d", s, m.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if m.Row(i) != want.Row(i) || m.Call(i) != want.Call(i) {
				t.Fatalf("%q pos %d: fill %v/%v vs alloc %v/%v",
					s, i, m.Row(i), m.Call(i), want.Row(i), want.Call(i))
			}
		}
		wantRC := want.ReverseComplement()
		rc.FillReverseComplementOf(&m)
		for i := 0; i < wantRC.Len(); i++ {
			if rc.Row(i) != wantRC.Row(i) || rc.Call(i) != wantRC.Call(i) {
				t.Fatalf("%q rc pos %d: fill %v/%v vs alloc %v/%v",
					s, i, rc.Row(i), rc.Call(i), wantRC.Row(i), wantRC.Call(i))
			}
		}
	}
	// Warm matrices must not allocate on refill.
	rd := newRead(t, "ACGTACGTAC", 20, 20, 20, 20, 20, 20, 20, 20, 20, 20)
	avg := testing.AllocsPerRun(20, func() {
		if err := m.FillFromRead(rd); err != nil {
			t.Fatal(err)
		}
		rc.FillReverseComplementOf(&m)
	})
	if avg > 0 {
		t.Errorf("warm Fill methods allocate %.1f/op, want 0", avg)
	}
}

// TestFillRowsEqualPerBaseExpression pins the lookup-table fill to the
// per-base computation it replaced: for every quality 0–255 and every
// base code (N included) the row must be == — not ≈ — the row built from
// fastq.ErrorProb with the original two expressions, 1-e and e/3.
func TestFillRowsEqualPerBaseExpression(t *testing.T) {
	codes := []dna.Code{dna.A, dna.C, dna.G, dna.T, dna.N}
	for q := 0; q < 256; q++ {
		e := fastq.ErrorProb(uint8(q))
		rd := &fastq.Read{Name: "r", Seq: dna.Seq(codes), Qual: make([]uint8, len(codes))}
		for i := range rd.Qual {
			rd.Qual[i] = uint8(q)
		}
		fromRead, err := FromRead(rd)
		if err != nil {
			t.Fatal(err)
		}
		// Uniform errors are only defined on [0,1): q=0 (e=1) has no
		// FillSeqUniformError counterpart.
		var uniform *Matrix
		if e < 1 {
			if uniform, err = FromSeqUniformError(rd.Seq, e); err != nil {
				t.Fatal(err)
			}
		}
		for i, b := range codes {
			var want [dna.NumBases]float64
			for k := 0; k < dna.NumBases; k++ {
				switch {
				case !b.IsConcrete():
					want[k] = 1.0 / dna.NumBases
				case dna.Code(k) == b:
					want[k] = 1 - e
				default:
					want[k] = e / 3
				}
			}
			if got := fromRead.Row(i); got != want {
				t.Fatalf("q=%d base %v: FillFromRead row %v, want %v", q, b, got, want)
			}
			if uniform != nil {
				if got := uniform.Row(i); got != want {
					t.Fatalf("e=%g base %v: FillSeqUniformError row %v, want %v", e, b, got, want)
				}
			}
		}
	}
}
