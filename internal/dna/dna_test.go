package dna

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCodeOf(t *testing.T) {
	cases := []struct {
		in   byte
		want Code
		ok   bool
	}{
		{'A', A, true}, {'a', A, true},
		{'C', C, true}, {'c', C, true},
		{'G', G, true}, {'g', G, true},
		{'T', T, true}, {'t', T, true},
		{'U', T, true}, {'u', T, true},
		{'N', N, true}, {'n', N, true},
		{'R', N, true}, {'y', N, true}, // IUPAC ambiguity degrades to N
		{'X', 0, false}, {' ', 0, false}, {'0', 0, false}, {0, 0, false},
	}
	for _, c := range cases {
		got, ok := CodeOf(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("CodeOf(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestCodeByteRoundTrip(t *testing.T) {
	for _, c := range []Code{A, C, G, T, N} {
		back, ok := CodeOf(c.Byte())
		if !ok || back != c {
			t.Errorf("round trip of %v failed: got %v, ok=%v", c, back, ok)
		}
	}
}

func TestComplement(t *testing.T) {
	pairs := map[Code]Code{A: T, T: A, C: G, G: C, N: N}
	for in, want := range pairs {
		if got := in.Complement(); got != want {
			t.Errorf("%v.Complement() = %v, want %v", in, got, want)
		}
	}
}

func TestComplementInvolution(t *testing.T) {
	for c := Code(0); c <= N; c++ {
		if c.Complement().Complement() != c {
			t.Errorf("complement not an involution for %v", c)
		}
	}
}

func TestPurinePyrimidine(t *testing.T) {
	if !A.IsPurine() || !G.IsPurine() || A.IsPyrimidine() {
		t.Error("purine classification wrong")
	}
	if !C.IsPyrimidine() || !T.IsPyrimidine() || C.IsPurine() {
		t.Error("pyrimidine classification wrong")
	}
	if N.IsPurine() || N.IsPyrimidine() {
		t.Error("N must be neither purine nor pyrimidine")
	}
}

func TestTransitionTransversion(t *testing.T) {
	if !IsTransition(A, G) || !IsTransition(C, T) || !IsTransition(G, A) {
		t.Error("A<->G and C<->T must be transitions")
	}
	if IsTransition(A, C) || IsTransition(A, T) || IsTransition(G, C) {
		t.Error("purine<->pyrimidine wrongly classified as transition")
	}
	if IsTransition(A, A) {
		t.Error("identity is not a transition")
	}
	if IsTransition(A, N) || IsTransition(N, C) {
		t.Error("N is no transition partner")
	}
}

func TestParseSeq(t *testing.T) {
	s, err := ParseSeq("ACGTNacgtn")
	if err != nil {
		t.Fatal(err)
	}
	want := Seq{A, C, G, T, N, A, C, G, T, N}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("ParseSeq mismatch at %d: %v != %v", i, s[i], want[i])
		}
	}
	if _, err := ParseSeq("ACGX"); err == nil {
		t.Error("expected error for invalid base X")
	}
	if _, err := ParseSeqBytes([]byte("AC GT")); err == nil {
		t.Error("expected error for embedded space")
	}
}

func TestSeqString(t *testing.T) {
	in := "ACGTN"
	s := MustParseSeq(in)
	if s.String() != in {
		t.Errorf("String() = %q, want %q", s.String(), in)
	}
	if string(s.Bytes()) != in {
		t.Errorf("Bytes() = %q, want %q", s.Bytes(), in)
	}
}

func TestReverseComplement(t *testing.T) {
	s := MustParseSeq("AACGTN")
	rc := s.ReverseComplement()
	if rc.String() != "NACGTT" {
		t.Errorf("ReverseComplement = %q, want NACGTT", rc.String())
	}
}

func TestReverseComplementInvolutionProperty(t *testing.T) {
	f := func(raw []byte) bool {
		s := randomSeqFromBytes(raw)
		return s.ReverseComplement().ReverseComplement().String() == s.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomSeqFromBytes deterministically maps arbitrary fuzz bytes onto a
// valid sequence so property tests explore the space of valid inputs.
func randomSeqFromBytes(raw []byte) Seq {
	s := make(Seq, len(raw))
	for i, b := range raw {
		s[i] = Code(b % 5)
	}
	return s
}

func TestGCContent(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"GGCC", 1.0},
		{"AATT", 0.0},
		{"ACGT", 0.5},
		{"NNNN", 0.0},
		{"GCNN", 1.0}, // N excluded from denominator
		{"", 0.0},
	}
	for _, c := range cases {
		if got := MustParseSeq(c.in).GCContent(); got != c.want {
			t.Errorf("GCContent(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestClone(t *testing.T) {
	s := MustParseSeq("ACGT")
	c := s.Clone()
	c[0] = T
	if s[0] != A {
		t.Error("Clone must not alias the original")
	}
}

func TestPackUnpackKmer(t *testing.T) {
	s := MustParseSeq("ACGTACGTAC")
	for k := 1; k <= len(s); k++ {
		for off := 0; off+k <= len(s); off++ {
			packed, ok := PackKmer(s, off, k)
			if !ok {
				t.Fatalf("PackKmer(%d,%d) unexpectedly failed", off, k)
			}
			// Two bits per base, first base most significant.
			for i, want := range s[off : off+k] {
				if got := Code(packed >> (2 * uint(k-1-i)) & 3); got != want {
					t.Fatalf("k=%d off=%d: base %d packed as %v, want %v", k, off, i, got, want)
				}
			}
			if packed>>(2*uint(k)) != 0 {
				t.Fatalf("k=%d off=%d: bits above the k-mer set in %x", k, off, packed)
			}
		}
	}
}

func TestPackKmerRejects(t *testing.T) {
	s := MustParseSeq("ACNGT")
	if _, ok := PackKmer(s, 0, 3); ok {
		t.Error("k-mer spanning N must not pack")
	}
	if _, ok := PackKmer(s, 3, 3); ok {
		t.Error("k-mer past end must not pack")
	}
	if _, ok := PackKmer(s, -1, 2); ok {
		t.Error("negative offset must not pack")
	}
	if _, ok := PackKmer(s, 0, 0); ok {
		t.Error("k=0 must not pack")
	}
	if _, ok := PackKmer(s, 0, MaxKmerLen+1); ok {
		t.Error("k beyond MaxKmerLen must not pack")
	}
}

func TestNextKmerMatchesRepack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := make(Seq, 200)
	for i := range s {
		s[i] = Code(rng.Intn(4))
	}
	const k = 10
	rolling, ok := PackKmer(s, 0, k)
	if !ok {
		t.Fatal("initial pack failed")
	}
	for off := 1; off+k <= len(s); off++ {
		rolling, ok = NextKmer(rolling, k, s[off+k-1])
		if !ok {
			t.Fatalf("NextKmer failed at off=%d", off)
		}
		direct, _ := PackKmer(s, off, k)
		if rolling != direct {
			t.Fatalf("rolling != direct at off=%d: %x != %x", off, rolling, direct)
		}
	}
}

func TestNextKmerRejectsN(t *testing.T) {
	if _, ok := NextKmer(0, 4, N); ok {
		t.Error("NextKmer must reject N")
	}
}

func TestHamming(t *testing.T) {
	a := MustParseSeq("ACGT")
	b := MustParseSeq("ACCA")
	d, err := Hamming(a, b)
	if err != nil || d != 2 {
		t.Errorf("Hamming = %d,%v want 2,nil", d, err)
	}
	if _, err := Hamming(a, MustParseSeq("AC")); err == nil {
		t.Error("expected length-mismatch error")
	}
	// N mismatches everything, including N.
	d, _ = Hamming(MustParseSeq("NN"), MustParseSeq("NA"))
	if d != 2 {
		t.Errorf("N-vs-N distance = %d, want 2", d)
	}
}

func TestChannelString(t *testing.T) {
	want := []string{"A", "C", "G", "T", "-"}
	for i, w := range want {
		if Channel(i).String() != w {
			t.Errorf("Channel(%d).String() = %q, want %q", i, Channel(i).String(), w)
		}
	}
	if Channel(9).String() != "Channel(9)" {
		t.Errorf("out-of-range channel formatting wrong: %q", Channel(9).String())
	}
}

func TestCodeChannelAlignment(t *testing.T) {
	// The accumulator indexes channels directly with Codes; the two
	// enumerations must stay numerically aligned.
	if Code(ChA) != A || Code(ChC) != C || Code(ChG) != G || Code(ChT) != T {
		t.Fatal("Channel and Code enumerations diverged")
	}
}
