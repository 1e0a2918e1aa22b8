// Package binfmt is the one copy of the plumbing under the repo's binary
// formats — the GNUMAPCP checkpoint (internal/ckpt), the GNUMAPIX seed
// index (internal/kmer) and the GST accumulator state blob
// (internal/genome). It knows four things and nothing about what the
// formats carry:
//
//   - the framed preamble (below) the two file formats share byte for
//     byte, parsed by one function from a stream or a byte slice;
//   - one set of sentinel errors, so "not this format", "damaged" and
//     "cut short" mean the same thing to errors.Is whichever format
//     failed (the format packages export them under their own names);
//   - WriteFileAtomic, the only temp-file + rename in the tree;
//   - the little-endian image of a numeric slice, zero-copy where host
//     byte order and alignment allow.
//
// The preamble:
//
//	magic   [8]byte
//	version uint16   (little-endian)
//	hlen    uint32   header length, bounded by Frame.MaxHeader
//	header  [hlen]byte
//	hcrc    uint32   CRC-32 of header under Frame.CRC
package binfmt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"unsafe"
)

// Every decode failure of every format wraps exactly one of these (or
// one of the format's own structural sentinels, such as a fingerprint
// mismatch).
var (
	// ErrMagic: the data does not start with the format's magic bytes.
	ErrMagic = errors.New("binfmt: bad magic")
	// ErrVersion: the format version is not one this build reads.
	ErrVersion = errors.New("binfmt: unsupported format version")
	// ErrTruncated: the data ends before a declared section does.
	ErrTruncated = errors.New("binfmt: truncated data")
	// ErrChecksum: a section's CRC does not match its contents.
	ErrChecksum = errors.New("binfmt: checksum mismatch")
	// ErrTooLarge: a declared length exceeds the caller's bound.
	ErrTooLarge = errors.New("binfmt: declared length exceeds limit")
)

// Frame identifies one framed format: what a file of it starts with and
// how its sections are checksummed.
type Frame struct {
	Magic   [8]byte
	Version uint16
	// CRC is the polynomial table of every checksum in the format.
	CRC *crc32.Table
	// MaxHeader bounds the declared header length before allocation.
	MaxHeader int
}

// PreambleLen is the encoded size of a preamble around a header of
// hlen bytes.
func PreambleLen(hlen int) int { return 8 + 2 + 4 + hlen + 4 }

// Sum checksums one section under the format's polynomial.
func (f Frame) Sum(b []byte) uint32 { return crc32.Checksum(b, f.CRC) }

// AppendPreamble appends the framed header to dst.
func (f Frame) AppendPreamble(dst, header []byte) []byte {
	dst = append(dst, f.Magic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, f.Version)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(header)))
	dst = append(dst, header...)
	return binary.LittleEndian.AppendUint32(dst, f.Sum(header))
}

// ReadPreamble reads and validates the preamble from r and returns the
// CRC-verified header, leaving r at the first byte after the header
// CRC. Fewer than eight bytes, or eight wrong ones, are ErrMagic; a
// stream that ends anywhere after its magic is ErrTruncated.
func (f Frame) ReadPreamble(r io.Reader) ([]byte, error) {
	var pre [8 + 2 + 4]byte
	if _, err := io.ReadFull(r, pre[:8]); err != nil {
		if isEOF(err) {
			return nil, fmt.Errorf("%w: no %q magic", ErrMagic, f.Magic[:])
		}
		return nil, fmt.Errorf("binfmt: read magic: %w", err)
	}
	if !bytes.Equal(pre[:8], f.Magic[:]) {
		return nil, fmt.Errorf("%w: %q, want %q", ErrMagic, pre[:8], f.Magic[:])
	}
	if err := ReadFull(r, pre[8:], "version/header length"); err != nil {
		return nil, err
	}
	if ver := binary.LittleEndian.Uint16(pre[8:10]); ver != f.Version {
		return nil, fmt.Errorf("%w: %q version %d, this build reads %d", ErrVersion, f.Magic[:], ver, f.Version)
	}
	hlen := int64(binary.LittleEndian.Uint32(pre[10:14]))
	if hlen > int64(f.MaxHeader) {
		return nil, fmt.Errorf("%w: header %d bytes > %d", ErrTooLarge, hlen, f.MaxHeader)
	}
	header := make([]byte, hlen+4)
	if err := ReadFull(r, header, "header section"); err != nil {
		return nil, err
	}
	hcrc := binary.LittleEndian.Uint32(header[hlen:])
	header = header[:hlen]
	if f.Sum(header) != hcrc {
		return nil, fmt.Errorf("%w: %q header", ErrChecksum, f.Magic[:])
	}
	return header, nil
}

// ParsePreamble is ReadPreamble over the first bytes of an in-memory
// image (the whole file, or at least its header block).
func (f Frame) ParsePreamble(data []byte) ([]byte, error) {
	return f.ReadPreamble(bytes.NewReader(data))
}

// ReadFull fills buf from r; a stream that ends first is ErrTruncated
// naming the section, any other failure is the I/O error itself.
func ReadFull(r io.Reader, buf []byte, section string) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if isEOF(err) {
			return fmt.Errorf("%w: %s", ErrTruncated, section)
		}
		return fmt.Errorf("binfmt: read %s: %w", section, err)
	}
	return nil
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// WriteFileAtomic replaces path with whatever write produces: the bytes
// go through a buffered writer to a temp file in the destination
// directory, which is fsynced, renamed over path, and the directory
// fsynced. A crash — or an error from write — at any instant leaves
// either the previous complete file or the new complete file, never a
// torn one, and no temp file behind. Returns the file size.
func WriteFileAtomic(path string, write func(io.Writer) error) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp.*")
	if err != nil {
		return 0, fmt.Errorf("binfmt: %w", err)
	}
	n, err := writeSynced(tmp, write)
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("binfmt: write %s: %w", path, err)
	}
	// Durability of the rename itself: fsync the directory. Failure
	// here does not invalidate the (already complete) file contents.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return n, nil
}

// writeSynced runs write against tmp, makes the result durable and
// closes tmp on every path.
func writeSynced(tmp *os.File, write func(io.Writer) error) (int64, error) {
	defer tmp.Close() // error paths; the success path checks Close below
	w := bufio.NewWriterSize(tmp, 1<<20)
	if err := write(w); err != nil {
		return 0, err
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	n, err := tmp.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		return 0, err
	}
	if err := tmp.Chmod(0o644); err != nil {
		return 0, err
	}
	return n, tmp.Close()
}

// Elem is the element types the formats store as little-endian arrays.
type Elem interface {
	int32 | int64 | uint64 | float32
}

// HostLittle reports whether this host stores integers little-endian —
// the precondition for using an on-disk array in place.
var HostLittle = binary.NativeEndian.Uint16([]byte{0x01, 0x02}) == 0x0201

// view reinterprets a slice's backing memory as raw bytes in host order.
func view[E Elem](s []E) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// swab copies src to dst reversing every width-byte element: host order
// to the opposite order, either way round.
func swab(dst, src []byte, width int) {
	for i := 0; i+width <= len(src); i += width {
		for j := 0; j < width; j++ {
			dst[i+j] = src[i+width-1-j]
		}
	}
}

// Bytes returns s in the on-disk (little-endian) layout: s's own memory
// on a little-endian host, an encoded copy elsewhere. Read-only.
func Bytes[E Elem](s []E) []byte {
	if HostLittle {
		return view(s)
	}
	out := make([]byte, len(view(s)))
	swab(out, view(s), int(unsafe.Sizeof(s[0])))
	return out
}

// Decode fills dst from the little-endian image b, which must hold at
// least len(dst) elements; b may be unaligned.
func Decode[E Elem](dst []E, b []byte) {
	if HostLittle {
		copy(view(dst), b)
		return
	}
	swab(view(dst), b[:len(view(dst))], int(unsafe.Sizeof(dst[0])))
}

// Slice decodes a whole little-endian section: b itself, reinterpreted,
// when host order and b's alignment allow (the result then aliases b —
// an mmap, typically), a decoded copy otherwise.
func Slice[E Elem](b []byte) []E {
	var zero E
	size := int(unsafe.Sizeof(zero))
	n := len(b) / size
	if n == 0 {
		return nil
	}
	if HostLittle && uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*E)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]E, n)
	Decode(out, b)
	return out
}
