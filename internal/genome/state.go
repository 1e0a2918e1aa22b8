package genome

import (
	"encoding/binary"
	"errors"
	"fmt"

	"gnumap/internal/binfmt"
	"gnumap/internal/dna"
)

// Stateful is the half of Accumulator that serializes per-position
// state for transport between cluster nodes (the paper's MPI
// genome-state communication) and for checkpoints. LoadStateBytes
// requires an accumulator of the same mode and length; callers must
// quiesce writers around both calls.
type Stateful interface {
	// State serializes the accumulator's per-position state.
	State() ([]byte, error)
	// LoadStateBytes overwrites the accumulator from State output.
	LoadStateBytes(data []byte) error
}

// State blobs use a compact little-endian binary layout rather than
// gob: accumulator state is dominated by large float32/uint8 arrays,
// which gob encodes element-by-element (~5 bytes and ~100ns per float).
// The raw layout is 4 bytes per float, encodes in one pass, and is what
// makes mid-run checkpoint snapshots cheap enough to overlap with
// mapping. Layout:
//
//	magic "GST" + mode tag byte + version byte
//	u64 accumulator length (positions)
//	u64 float count + that many float32 (LE bit patterns)
//	u64 byte count  + that many raw bytes
//
// The blob carries no CRC of its own (on disk it is a checkpoint's
// checksummed payload section); the float array goes through
// internal/binfmt's slice codec.
const (
	stateVersion = 1
	stateHdrLen  = 3 + 1 + 1 + 8
)

var stateMagic = [3]byte{'G', 'S', 'T'}

// Typed failure modes of LoadStateBytes: every rejection wraps exactly
// one of these. The first three are the shared container sentinels
// (internal/binfmt).
var (
	// ErrStateMagic: the data does not start with the state magic.
	ErrStateMagic = binfmt.ErrMagic
	// ErrStateVersion: written by a codec version this build does not read.
	ErrStateVersion = binfmt.ErrVersion
	// ErrStateTruncated: the data ends before a declared array does.
	ErrStateTruncated = binfmt.ErrTruncated
	// ErrStateMismatch: a well-formed blob, but for another layout,
	// another accumulator length, or with bytes past its last array.
	ErrStateMismatch = errors.New("genome: state blob does not match the accumulator")
)

// encodeState serializes one accumulator's arrays under its mode tag.
func encodeState(tag byte, length int, f []float32, b []uint8) []byte {
	buf := make([]byte, 0, stateHdrLen+16+4*len(f)+len(b))
	buf = append(buf, stateMagic[0], stateMagic[1], stateMagic[2], tag, stateVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(length))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(f)))
	buf = append(buf, binfmt.Bytes(f)...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(b)))
	return append(buf, b...)
}

// decodeState validates the header against the expected tag and element
// counts and fills f and b in place (copy semantics, like the encoders'
// callers always had).
func decodeState(data []byte, tag byte, length int, f []float32, b []uint8) error {
	if len(data) < len(stateMagic) || [3]byte(data[:3]) != stateMagic {
		return fmt.Errorf("genome: decode state: %w", ErrStateMagic)
	}
	if len(data) < stateHdrLen {
		return fmt.Errorf("genome: decode state: %w: %d-byte header", ErrStateTruncated, len(data))
	}
	if data[4] != stateVersion {
		return fmt.Errorf("genome: decode state: %w: version %d, want %d", ErrStateVersion, data[4], stateVersion)
	}
	if data[3] != tag {
		return fmt.Errorf("genome: decode state: %w: mode tag %q, want %q", ErrStateMismatch, data[3], tag)
	}
	if got := binary.LittleEndian.Uint64(data[5:]); got != uint64(length) {
		return fmt.Errorf("genome: decode state: %w: state for length %d, have %d", ErrStateMismatch, got, length)
	}
	rest := data[stateHdrLen:]
	if len(rest) < 8 {
		return fmt.Errorf("genome: decode state: %w: float section", ErrStateTruncated)
	}
	nf := binary.LittleEndian.Uint64(rest)
	rest = rest[8:]
	if nf != uint64(len(f)) {
		return fmt.Errorf("genome: decode state: %w: %d floats, want %d", ErrStateMismatch, nf, len(f))
	}
	if uint64(len(rest)) < 4*nf+8 {
		return fmt.Errorf("genome: decode state: %w: %d floats and a byte section in %d bytes", ErrStateTruncated, nf, len(rest))
	}
	nb := binary.LittleEndian.Uint64(rest[4*nf:])
	tail := rest[4*nf+8:]
	switch {
	case nb != uint64(len(b)):
		return fmt.Errorf("genome: decode state: %w: %d bytes, want %d", ErrStateMismatch, nb, len(b))
	case uint64(len(tail)) < nb:
		return fmt.Errorf("genome: decode state: %w: byte section", ErrStateTruncated)
	case uint64(len(tail)) > nb:
		return fmt.Errorf("genome: decode state: %w: %d trailing bytes", ErrStateMismatch, uint64(len(tail))-nb)
	}
	binfmt.Decode(f, rest)
	copy(b, tail)
	return nil
}

// State implements Stateful. The wire format predates the plane-major
// in-memory layout and stays position-major (five consecutive channel
// floats per position), so state blobs — including checkpoint files
// written before the transpose — remain byte-compatible across
// versions. The transpose costs one pass over an array the encoder
// copies anyway.
func (a *normAcc) State() ([]byte, error) {
	lkFirst, lkLast := lockRange(a.locks, 0, a.length)
	defer unlockRange(a.locks, lkFirst, lkLast)
	inter := make([]float32, len(a.data))
	for k := 0; k < dna.NumChannels; k++ {
		pk := a.plane(k)
		for pos, v := range pk {
			inter[pos*dna.NumChannels+k] = v
		}
	}
	return encodeState('N', a.length, inter, nil), nil
}

// LoadStateBytes implements Stateful (position-major wire format; see
// State). Every load counts a write on every tile; a failed one changes
// nothing (decodeState validates the whole blob before it writes a
// byte), so for it the marks are merely conservative.
func (a *normAcc) LoadStateBytes(data []byte) error {
	lkFirst, lkLast := lockRange(a.locks, 0, a.length)
	defer unlockRange(a.locks, lkFirst, lkLast)
	a.markAll()
	inter := make([]float32, len(a.data))
	if err := decodeState(data, 'N', a.length, inter, nil); err != nil {
		return err
	}
	for k := 0; k < dna.NumChannels; k++ {
		pk := a.plane(k)
		for pos := range pk {
			pk[pos] = inter[pos*dna.NumChannels+k]
		}
	}
	return nil
}

// State implements Stateful.
func (a *charDiscAcc) State() ([]byte, error) {
	lkFirst, lkLast := lockRange(a.locks, 0, a.length)
	defer unlockRange(a.locks, lkFirst, lkLast)
	return encodeState('C', a.length, a.total, a.frac), nil
}

// LoadStateBytes implements Stateful.
func (a *charDiscAcc) LoadStateBytes(data []byte) error {
	lkFirst, lkLast := lockRange(a.locks, 0, a.length)
	defer unlockRange(a.locks, lkFirst, lkLast)
	a.markAll()
	return decodeState(data, 'C', a.length, a.total, a.frac)
}

// State implements Stateful. Codebook bytes travel directly — both ends
// share the deterministic default codebook, the property the paper's
// table-lookup reduction relies on.
func (a *centDiscAcc) State() ([]byte, error) {
	lkFirst, lkLast := lockRange(a.locks, 0, a.length)
	defer unlockRange(a.locks, lkFirst, lkLast)
	return encodeState('D', a.length, a.total, a.code), nil
}

// LoadStateBytes implements Stateful.
func (a *centDiscAcc) LoadStateBytes(data []byte) error {
	lkFirst, lkLast := lockRange(a.locks, 0, a.length)
	defer unlockRange(a.locks, lkFirst, lkLast)
	a.markAll()
	return decodeState(data, 'D', a.length, a.total, a.code)
}

// CloneEmpty returns a fresh accumulator with the same mode and length.
func CloneEmpty(a Accumulator) (Accumulator, error) {
	return New(a.Mode(), a.Len())
}

// Reset zeroes an accumulator's per-position state in place: a cluster
// rank resets at a quiesce barrier after shipping its state and goes on
// accumulating into the same arrays. Every tile counts a write. Writers
// must be quiesced.
func Reset(acc Accumulator) error {
	switch a := acc.(type) {
	case *normAcc:
		clear(a.data)
		a.markAll()
	case *charDiscAcc:
		clear(a.total)
		clear(a.frac)
		a.markAll()
	case *centDiscAcc:
		clear(a.total)
		clear(a.code)
		a.markAll()
	default:
		return fmt.Errorf("genome: %T cannot be reset", acc)
	}
	return nil
}
