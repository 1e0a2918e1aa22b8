// Package pwm builds position-weight matrices from sequencing reads and
// their Phred quality scores.
//
// This is the entry point of the paper's probabilistic extension of the
// Pair-HMM (§VI, Step 2): instead of treating each read position as a
// single fixed nucleotide, GNUMAP-SNP represents it as a probability
// vector r_i = (r_iA, r_iC, r_iG, r_iT) over the four bases, derived
// from the sequencer's own error estimate. The PHMM's match-emission
// term then becomes p*(i,j) = Σ_k r_ik · p_{k,y_j}, so low-quality
// bases contribute weak, diffuse evidence while high-quality bases
// contribute sharp evidence.
package pwm

import (
	"fmt"

	"gnumap/internal/dna"
	"gnumap/internal/fastq"
)

// Matrix is a position-weight matrix: one probability vector over the
// four concrete bases per read position. Rows always sum to 1.
type Matrix struct {
	rows [][dna.NumBases]float64
	// calls retains the most-likely base per position (the sequencer's
	// call), used where a single representative base is needed, e.g.
	// when attributing posterior alignment mass to a nucleotide.
	calls dna.Seq
}

// FromRead converts a read into a PWM. A called base b with error
// probability e receives weight 1-e; the three alternatives split e
// evenly (the standard uniform-error channel assumption). An ambiguous
// N becomes the uniform vector regardless of its quality value.
func FromRead(r *fastq.Read) (*Matrix, error) {
	m := &Matrix{}
	if err := m.FillFromRead(r); err != nil {
		return nil, err
	}
	return m, nil
}

// qualWeights[q] is (1-e, e/3) for Phred score q — the weight of the
// called base and of each alternative. A read row is a lookup, not a
// math.Pow per base; the entries are the very expressions the per-base
// computation evaluated, so rows are bit-identical to it.
var qualWeights = func() (t [256][2]float64) {
	for q := range t {
		e := fastq.ErrorProb(uint8(q))
		t[q] = [2]float64{1 - e, e / 3}
	}
	return t
}()

// uniformRow is the row of an ambiguous base (N), whatever its quality.
var uniformRow = calledRow(dna.A, 1.0/dna.NumBases, 1.0/dna.NumBases)

// calledRow is the row of concrete base b: hit on b, miss elsewhere.
func calledRow(b dna.Code, hit, miss float64) [dna.NumBases]float64 {
	row := [dna.NumBases]float64{miss, miss, miss, miss}
	row[b] = hit
	return row
}

// FillFromRead is FromRead into an existing Matrix, reusing its
// storage — the mapper's per-read hot path, which must not allocate in
// steady state.
func (m *Matrix) FillFromRead(r *fastq.Read) error {
	if err := r.Validate(); err != nil {
		return err
	}
	m.fill(r.Seq, r.Qual, nil)
	return nil
}

// fill sets one row per base of s: weighted by its quality, or by the
// flat (hit, miss) pair when qual is nil.
func (m *Matrix) fill(s dna.Seq, qual []uint8, flat *[2]float64) {
	m.reset(len(s))
	copy(m.calls, s)
	for i, b := range s {
		if !b.IsConcrete() {
			m.rows[i] = uniformRow
			continue
		}
		w := flat
		if qual != nil {
			w = &qualWeights[qual[i]]
		}
		m.rows[i] = calledRow(b, w[0], w[1])
	}
}

// FromSeqUniformError builds a PWM from a bare sequence with a single
// flat error probability for every position. Used by baselines and by
// the ablation that disables quality weighting (e=0 reproduces the
// classical one-hot emission).
func FromSeqUniformError(s dna.Seq, e float64) (*Matrix, error) {
	m := &Matrix{}
	if err := m.FillSeqUniformError(s, e); err != nil {
		return nil, err
	}
	return m, nil
}

// FillSeqUniformError is FromSeqUniformError into an existing Matrix,
// reusing its storage.
func (m *Matrix) FillSeqUniformError(s dna.Seq, e float64) error {
	if e < 0 || e >= 1 {
		return fmt.Errorf("pwm: error probability %g out of [0,1)", e)
	}
	m.fill(s, nil, &[2]float64{1 - e, e / 3})
	return nil
}

// reset sizes the matrix to n positions, reusing backing arrays.
func (m *Matrix) reset(n int) {
	if cap(m.rows) < n {
		m.rows = make([][dna.NumBases]float64, n)
		m.calls = make(dna.Seq, n)
	}
	m.rows = m.rows[:n]
	m.calls = m.calls[:n]
}

// Len returns the number of positions.
func (m *Matrix) Len() int { return len(m.rows) }

// Row returns the probability vector at position i.
func (m *Matrix) Row(i int) [dna.NumBases]float64 { return m.rows[i] }

// Prob returns the probability of base k at position i.
func (m *Matrix) Prob(i int, k dna.Code) float64 {
	if !k.IsConcrete() {
		return 0
	}
	return m.rows[i][k]
}

// Call returns the sequencer's called base at position i (possibly N).
func (m *Matrix) Call(i int) dna.Code { return m.calls[i] }

// Calls returns the full called sequence (aliased, do not mutate).
func (m *Matrix) Calls() dna.Seq { return m.calls }

// ReverseComplement returns the PWM of the reverse-complement read:
// positions reversed and base weights swapped A<->T, C<->G. Mapping a
// read to the minus strand uses this matrix against the forward genome.
func (m *Matrix) ReverseComplement() *Matrix {
	out := &Matrix{}
	out.FillReverseComplementOf(m)
	return out
}

// FillReverseComplementOf is ReverseComplement into an existing Matrix
// (which must not be src itself), reusing its storage.
func (m *Matrix) FillReverseComplementOf(src *Matrix) {
	n := len(src.rows)
	m.reset(n)
	for i := range m.rows {
		r := &src.rows[n-1-i]
		m.rows[i] = [dna.NumBases]float64{dna.A: r[dna.T], dna.C: r[dna.G], dna.G: r[dna.C], dna.T: r[dna.A]}
		m.calls[i] = src.calls[n-1-i].Complement()
	}
}
