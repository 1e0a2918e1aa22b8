// Package dna provides the nucleotide substrate shared by every other
// package in the repository: compact base codes, conversions to and from
// ASCII, complementation, and small sequence utilities (GC content,
// transition/transversion classification, k-mer packing).
//
// Bases are represented by the Code type, a dense 0-based index that is
// also used as the channel index into per-position probability vectors
// throughout the genome accumulator and the Pair-HMM: A=0, C=1, G=2,
// T=3, with N=4 reserved for ambiguous bases. SNP-calling additionally
// tracks a gap channel; see Channel.
package dna

import (
	"fmt"
	"slices"
	"strings"
)

// Code is a dense nucleotide code. Values 0-3 are the concrete bases in
// the fixed order A, C, G, T; 4 is the ambiguity code N.
type Code uint8

// The nucleotide codes. The ordering is load-bearing: it is the channel
// order of every probability vector in the system.
const (
	A Code = iota
	C
	G
	T
	N
)

// NumBases is the number of concrete nucleotide codes (A, C, G, T).
const NumBases = 4

// Channel indexes the five per-position accumulation channels used by
// SNP calling: the four bases plus an alignment gap.
type Channel uint8

// The accumulation channels. ChA..ChT coincide numerically with the
// corresponding Codes so a Code can be used directly as a Channel.
const (
	ChA Channel = iota
	ChC
	ChG
	ChT
	ChGap
)

// NumChannels is the number of accumulation channels (A, C, G, T, gap).
const NumChannels = 5

// channelNames holds the display names of the channels in channel order.
var channelNames = [NumChannels]string{"A", "C", "G", "T", "-"}

// String returns the display name of the channel ("A".."T", or "-" for
// the gap channel).
func (ch Channel) String() string {
	if int(ch) < len(channelNames) {
		return channelNames[ch]
	}
	return fmt.Sprintf("Channel(%d)", uint8(ch))
}

// codeFromASCII maps ASCII bytes to Codes; entries not set explicitly
// map to the sentinel invalidCode.
var codeFromASCII [256]Code

const invalidCode Code = 0xff

func init() {
	for i := range codeFromASCII {
		codeFromASCII[i] = invalidCode
	}
	set := func(b byte, c Code) {
		codeFromASCII[b] = c
		codeFromASCII[b|0x20] = c // lower-case alias
	}
	set('A', A)
	set('C', C)
	set('G', G)
	set('T', T)
	set('U', T) // RNA uracil maps to T
	set('N', N)
	// Remaining IUPAC ambiguity codes degrade to N: the mapper treats
	// any ambiguity as a uniform emission.
	for _, b := range []byte("RYSWKMBDHV") {
		set(b, N)
	}
}

// CodeOf converts an ASCII nucleotide byte (either case; U treated as T;
// IUPAC ambiguity codes treated as N) to its Code. The second result is
// false for bytes that are not nucleotide letters.
func CodeOf(b byte) (Code, bool) {
	c := codeFromASCII[b]
	return c, c != invalidCode
}

// asciiFromCode maps Codes back to upper-case ASCII.
var asciiFromCode = [5]byte{'A', 'C', 'G', 'T', 'N'}

// Byte returns the upper-case ASCII letter for the code.
func (c Code) Byte() byte {
	if c <= N {
		return asciiFromCode[c]
	}
	return '?'
}

// String returns the single-letter name of the code.
func (c Code) String() string { return string(c.Byte()) }

// IsConcrete reports whether the code is one of the four concrete bases.
func (c Code) IsConcrete() bool { return c < N }

// Complement returns the Watson-Crick complement. N complements to N.
func (c Code) Complement() Code {
	switch c {
	case A:
		return T
	case C:
		return G
	case G:
		return C
	case T:
		return A
	default:
		return N
	}
}

// IsPurine reports whether the code is a purine (A or G).
func (c Code) IsPurine() bool { return c == A || c == G }

// IsPyrimidine reports whether the code is a pyrimidine (C or T).
func (c Code) IsPyrimidine() bool { return c == C || c == T }

// IsTransition reports whether a substitution from a to b is a
// transition (purine->purine or pyrimidine->pyrimidine). Identical or
// non-concrete codes are neither transitions nor transversions.
func IsTransition(a, b Code) bool {
	if a == b || !a.IsConcrete() || !b.IsConcrete() {
		return false
	}
	return (a.IsPurine() && b.IsPurine()) || (a.IsPyrimidine() && b.IsPyrimidine())
}

// Seq is a nucleotide sequence in Code representation.
type Seq []Code

// ParseSeq converts an ASCII nucleotide string to a Seq. It returns an
// error naming the first invalid byte and its offset.
func ParseSeq(s string) (Seq, error) {
	seq := make(Seq, len(s))
	for i := 0; i < len(s); i++ {
		c, ok := CodeOf(s[i])
		if !ok {
			return nil, fmt.Errorf("dna: invalid nucleotide %q at offset %d", s[i], i)
		}
		seq[i] = c
	}
	return seq, nil
}

// MustParseSeq is ParseSeq but panics on invalid input. For tests and
// package-level literals only.
func MustParseSeq(s string) Seq {
	seq, err := ParseSeq(s)
	if err != nil {
		panic(err)
	}
	return seq
}

// ParseSeqBytes converts raw ASCII bytes (e.g. a FASTQ read) to a Seq,
// skipping nothing: every byte must be a nucleotide letter.
func ParseSeqBytes(b []byte) (Seq, error) {
	seq, err := AppendSeqBytes(make(Seq, 0, len(b)), b)
	if err != nil {
		return nil, err
	}
	return seq, nil
}

// AppendSeqBytes decodes raw ASCII bytes onto dst, as ParseSeqBytes
// does, and returns the extended sequence. An invalid byte's offset
// counts from the start of dst, so a FASTA body decoded a line at a time
// reports the offset ParseSeqBytes reports for the body whole; on error
// the returned sequence ends before that byte.
func AppendSeqBytes(dst Seq, b []byte) (Seq, error) {
	n := len(dst)
	dst = slices.Grow(dst, len(b))[:n+len(b)]
	for i, raw := range b {
		c, ok := CodeOf(raw)
		if !ok {
			return dst[:n+i], fmt.Errorf("dna: invalid nucleotide %q at offset %d", raw, n+i)
		}
		dst[n+i] = c
	}
	return dst, nil
}

// String renders the sequence as upper-case ASCII.
func (s Seq) String() string {
	var sb strings.Builder
	sb.Grow(len(s))
	for _, c := range s {
		sb.WriteByte(c.Byte())
	}
	return sb.String()
}

// Bytes renders the sequence as upper-case ASCII bytes.
func (s Seq) Bytes() []byte {
	out := make([]byte, len(s))
	for i, c := range s {
		out[i] = c.Byte()
	}
	return out
}

// Clone returns a deep copy of the sequence.
func (s Seq) Clone() Seq {
	out := make(Seq, len(s))
	copy(out, s)
	return out
}

// ReverseComplement returns the reverse complement as a new sequence.
func (s Seq) ReverseComplement() Seq {
	out := make(Seq, len(s))
	for i, c := range s {
		out[len(s)-1-i] = c.Complement()
	}
	return out
}

// GCContent returns the fraction of concrete bases that are G or C.
// It returns 0 for sequences with no concrete bases.
func (s Seq) GCContent() float64 {
	gc, total := 0, 0
	for _, c := range s {
		if !c.IsConcrete() {
			continue
		}
		total++
		if c == G || c == C {
			gc++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(gc) / float64(total)
}

// Kmer is a 2-bit packed k-mer. With 2 bits per base it holds up to 32
// bases; the mapper's default k is 10.
type Kmer uint64

// MaxKmerLen is the longest k-mer representable by Kmer.
const MaxKmerLen = 32

// PackKmer packs s[offset:offset+k] into a Kmer. It returns ok=false if
// the window extends past the sequence, contains an ambiguous base, or k
// is out of range.
func PackKmer(s Seq, offset, k int) (kmer Kmer, ok bool) {
	if k <= 0 || k > MaxKmerLen || offset < 0 || offset+k > len(s) {
		return 0, false
	}
	for i := 0; i < k; i++ {
		c := s[offset+i]
		if !c.IsConcrete() {
			return 0, false
		}
		kmer = kmer<<2 | Kmer(c)
	}
	return kmer, true
}

// Hamming returns the Hamming distance between equal-length sequences
// and an error if the lengths differ. N mismatches everything, including
// another N, because an ambiguous base carries no evidence of identity.
func Hamming(a, b Seq) (int, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("dna: Hamming length mismatch %d != %d", len(a), len(b))
	}
	d := 0
	for i := range a {
		if a[i] != b[i] || a[i] == N {
			d++
		}
	}
	return d, nil
}
