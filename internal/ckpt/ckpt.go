// Package ckpt implements the durable checkpoint file format that makes
// a long mapping run killable and resumable. A checkpoint carries three
// things:
//
//   - a config fingerprint (reference digest, memory mode, effective
//     band, ploidy, and a digest over the remaining call-affecting
//     parameters) so a checkpoint can never be silently loaded into a
//     pipeline that would produce different calls;
//   - a source watermark (reads consumed from the input stream) plus
//     the mapping statistics at that point, so a resumed run can skip
//     exactly the already-mapped prefix and keep its counters honest;
//   - the serialized accumulator state (genome.Stateful blob).
//
// The on-disk layout is versioned, length-prefixed, and checksummed so
// every failure mode — truncation, bit rot, version skew, a file that
// is not a checkpoint at all — surfaces as a typed error instead of
// undefined behavior:
//
//	magic   [8]byte  "GNUMAPCP"
//	version uint16   (little-endian; currently 1)
//	hlen    uint32   header length
//	header  [hlen]byte (fixed v1 binary layout, see headerV1)
//	hcrc    uint32   CRC-32 (IEEE) of header
//	plen    uint64   payload length
//	payload [plen]byte (accumulator state blob)
//	pcrc    uint32   CRC-32 (IEEE) of payload
//
// The preamble (magic through header CRC), the typed errors and the
// atomic file replacement are internal/binfmt's; this package owns the
// header fields, the payload section and the fingerprint check.
package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"gnumap/internal/binfmt"
)

// Magic identifies a checkpoint file.
var Magic = [8]byte{'G', 'N', 'U', 'M', 'A', 'P', 'C', 'P'}

// Version is the current format version.
const Version = 1

// headerV1 is the version-1 header as it lies on disk: encoding/binary
// renders the fields in declaration order, little-endian, unpadded.
type headerV1 struct {
	Fingerprint
	ReadsConsumed, Mapped, Unmapped, Locations int64
}

// v1HeaderLen is the exact encoded header size of version 1.
const v1HeaderLen = 32 + 8 + 4 + 4 + 4 + 32 + 8 + 8 + 8 + 8

// frame is the checkpoint container: CRC-32 (IEEE) sections, declared
// header length bounded at 4 KiB before allocation.
var frame = binfmt.Frame{Magic: Magic, Version: Version, CRC: crc32.IEEETable, MaxHeader: 1 << 12}

// Typed failure modes. Every decode error wraps exactly one of these,
// so callers distinguish "not a checkpoint" from "damaged checkpoint"
// from "checkpoint for a different run" with errors.Is. The first five
// are the shared container sentinels (internal/binfmt).
var (
	// ErrNotCheckpoint: the data does not start with the magic bytes.
	ErrNotCheckpoint = binfmt.ErrMagic
	// ErrVersion: the format version is not supported by this build.
	ErrVersion = binfmt.ErrVersion
	// ErrTruncated: the data ends before a declared section does.
	ErrTruncated = binfmt.ErrTruncated
	// ErrChecksum: a section's CRC does not match its contents.
	ErrChecksum = binfmt.ErrChecksum
	// ErrTooLarge: a declared section length exceeds the caller's bound.
	ErrTooLarge = binfmt.ErrTooLarge
	// ErrMismatch: the checkpoint's config fingerprint does not match
	// the pipeline trying to load it.
	ErrMismatch = errors.New("ckpt: config fingerprint mismatch")
)

// Fingerprint pins a checkpoint to the run configuration that produced
// it. Only call-affecting parameters participate: execution knobs
// (worker count, batch size, queue depth) are free to change across a
// resume.
type Fingerprint struct {
	// RefDigest is the SHA-256 of the concatenated reference sequence.
	RefDigest [32]byte
	// RefLen is the concatenated reference length.
	RefLen int64
	// Memory is the accumulator layout (genome.Mode).
	Memory int32
	// Band is the effective Pair-HMM band width.
	Band int32
	// Ploidy is the LRT hypothesis family.
	Ploidy int32
	// ParamsDigest hashes the remaining call-affecting configuration
	// (PHMM parameters, seeding/filter thresholds, caller settings).
	ParamsDigest [32]byte
}

// Check returns nil when got matches f, or an error wrapping
// ErrMismatch naming the first differing field.
func (f Fingerprint) Check(got Fingerprint) error {
	switch {
	case f.RefDigest != got.RefDigest:
		return fmt.Errorf("%w: reference digest %x != %x", ErrMismatch, got.RefDigest[:8], f.RefDigest[:8])
	case f.RefLen != got.RefLen:
		return fmt.Errorf("%w: reference length %d != %d", ErrMismatch, got.RefLen, f.RefLen)
	case f.Memory != got.Memory:
		return fmt.Errorf("%w: memory mode %d != %d", ErrMismatch, got.Memory, f.Memory)
	case f.Band != got.Band:
		return fmt.Errorf("%w: band width %d != %d", ErrMismatch, got.Band, f.Band)
	case f.Ploidy != got.Ploidy:
		return fmt.Errorf("%w: ploidy %d != %d", ErrMismatch, got.Ploidy, f.Ploidy)
	case f.ParamsDigest != got.ParamsDigest:
		return fmt.Errorf("%w: parameter digest %x != %x", ErrMismatch, got.ParamsDigest[:8], f.ParamsDigest[:8])
	}
	return nil
}

// DigestParams hashes an arbitrary canonical parameter rendering into a
// ParamsDigest. Callers are responsible for a deterministic rendering
// (e.g. fmt over a fixed field list).
func DigestParams(canonical string) [32]byte {
	return sha256.Sum256([]byte(canonical))
}

// Checkpoint is the decoded content of a checkpoint file.
type Checkpoint struct {
	Fingerprint Fingerprint
	// ReadsConsumed is the source watermark: every read with ordinal
	// < ReadsConsumed (0-based) is fully accumulated in State.
	ReadsConsumed int64
	// Mapped/Unmapped/Locations are the mapping statistics at the
	// watermark (Mapped + Unmapped == ReadsConsumed).
	Mapped, Unmapped, Locations int64
	// State is the accumulator state blob (genome.Stateful.State).
	State []byte
}

// MaxPayloadFor bounds the declared payload length for a reference of
// the given length: the largest accumulator state (NORM, five float32
// per position) encodes to well under 64 bytes/position in the genome
// package's raw layout, plus a fixed allowance for framing.
func MaxPayloadFor(refLen int) int64 {
	return 64*int64(refLen) + 1<<20
}

// Encode serializes a checkpoint.
func Encode(cp *Checkpoint) []byte {
	var buf bytes.Buffer
	buf.Grow(binfmt.PreambleLen(v1HeaderLen) + 8 + len(cp.State) + 4)
	WriteTo(&buf, cp) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// WriteTo encodes cp to w — the framed header, then the length-prefixed
// and checksummed payload, the state blob itself written in place
// rather than copied — and returns the byte count.
func WriteTo(w io.Writer, cp *Checkpoint) (int64, error) {
	pre := frame.AppendPreamble(make([]byte, 0, binfmt.PreambleLen(v1HeaderLen)+8), encodeHeader(cp))
	pre = binary.LittleEndian.AppendUint64(pre, uint64(len(cp.State)))
	pcrc := binary.LittleEndian.AppendUint32(nil, frame.Sum(cp.State))
	var total int64
	for _, part := range [][]byte{pre, cp.State, pcrc} {
		n, err := w.Write(part)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func encodeHeader(cp *Checkpoint) []byte {
	var b bytes.Buffer
	b.Grow(v1HeaderLen)
	// A fixed-size struct into a bytes.Buffer cannot fail.
	binary.Write(&b, binary.LittleEndian, headerV1{cp.Fingerprint, cp.ReadsConsumed, cp.Mapped, cp.Unmapped, cp.Locations})
	return b.Bytes()
}

func decodeHeader(h []byte) (*Checkpoint, error) {
	var v headerV1
	if err := binary.Read(bytes.NewReader(h), binary.LittleEndian, &v); err != nil {
		return nil, fmt.Errorf("%w: header %d bytes, need %d", ErrTruncated, len(h), v1HeaderLen)
	}
	return &Checkpoint{
		Fingerprint: v.Fingerprint, ReadsConsumed: v.ReadsConsumed,
		Mapped: v.Mapped, Unmapped: v.Unmapped, Locations: v.Locations,
	}, nil
}

// Decode parses a checkpoint from data: ReadFrom over the bytes, so the
// two cannot disagree about any input. Decode never panics on hostile
// input; every failure wraps one of the typed sentinel errors.
func Decode(data []byte, maxPayload int64) (*Checkpoint, error) {
	return ReadFrom(bytes.NewReader(data), maxPayload)
}

// ReadFrom decodes a checkpoint from a stream, reading section by
// section so the declared payload length is validated against
// maxPayload (use MaxPayloadFor; <= 0 rejects any payload) before any
// large allocation. The returned State is a private buffer.
func ReadFrom(r io.Reader, maxPayload int64) (*Checkpoint, error) {
	header, err := frame.ReadPreamble(r)
	if err != nil {
		return nil, err
	}
	cp, err := decodeHeader(header)
	if err != nil {
		return nil, err
	}
	var plenBuf [8]byte
	if err := binfmt.ReadFull(r, plenBuf[:], "payload length"); err != nil {
		return nil, err
	}
	plen := binary.LittleEndian.Uint64(plenBuf[:])
	if maxPayload <= 0 || plen > uint64(maxPayload) {
		return nil, fmt.Errorf("%w: payload %d bytes > %d", ErrTooLarge, plen, maxPayload)
	}
	payload := make([]byte, plen+4)
	if err := binfmt.ReadFull(r, payload, "payload section"); err != nil {
		return nil, err
	}
	pcrc := binary.LittleEndian.Uint32(payload[plen:])
	payload = payload[:plen]
	if frame.Sum(payload) != pcrc {
		return nil, fmt.Errorf("%w: payload", ErrChecksum)
	}
	cp.State = payload
	return cp, nil
}

// WriteFile atomically replaces path with the encoded checkpoint
// (binfmt.WriteFileAtomic: a crash at any point leaves either the old
// complete file or the new complete file). Returns the encoded size.
func WriteFile(path string, cp *Checkpoint) (int64, error) {
	return binfmt.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := WriteTo(w, cp)
		return err
	})
}

// ReadFile reads and decodes the checkpoint at path.
func ReadFile(path string, maxPayload int64) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cp, err := ReadFrom(f, maxPayload)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cp, nil
}
