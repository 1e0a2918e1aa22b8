// On-disk persistence for the large-seed index: an mmap-friendly,
// little-endian, page-aligned format so a genome-scale index loads in
// milliseconds instead of being rebuilt per run.
//
// Layout (all integers little-endian):
//
//	magic    [8]byte  "GNUMAPIX"
//	version  uint16   (currently 2; version 1 files are refused)
//	hlen     uint32   header length (v2: exactly 100)
//	header   [hlen]   fixed v2 layout, see indexHeader — the reference
//	                  fingerprint (SHA-256 + length), seed parameters,
//	                  section element counts, and one CRC-32C per
//	                  section
//	hcrc     uint32   CRC-32C of header
//	-- zero padding to offset 4096 --
//	slotOff  [(nParts+1) * 8]   partition directory
//	-- zero padding to a 64-byte boundary --
//	slots    [nSlots * 16]      per slot: canonical key uint64, entry uint64
//	recs     [nRecs * 4]        multi-occurrence records (int32 words)
//
// A slot's key is the lesser of a k-mer's pack and its reverse
// complement's. Its entry is 0 for a free slot; otherwise the low two
// bits say what the high 32 hold: 1, the class's one position, an
// occurrence of the key; 2, likewise of its reverse complement; 3, the
// offset in recs of the class's record: the true counts n0 (the key)
// and n1 (its reverse complement), then the first min(n0, MaxStore)
// and min(n1, MaxStore) positions of each, ascending.
//
// Every section starts 8-byte aligned at a fixed offset computable from
// the header — the slots on a cache line, so no 16-byte slot straddles
// two — and on a little-endian host the mmap'd file is used zero-copy:
// the arrays are reinterpreted views of the mapping.
// Big-endian hosts and non-mmap platforms fall back to a read + decode
// copy. The header CRC is always verified; section CRCs are verified on
// the copy path and on demand (LoadOptions.Verify) for the mmap path —
// full-file checksumming on every load would cost as much as the
// rebuild the format exists to avoid, which is the same trust model
// every mmap'd genomics index (SNAP, BWA) uses. Structural validation
// (directory shape, bounds) always runs, and lookups bounds-guard, so
// a torn file can degrade lookups but never corrupt memory.
//
// The preamble (magic through header CRC), the shared typed errors, the
// little-endian section codec and the atomic file replacement are
// internal/binfmt's — the same container ckpt files use, here with
// CRC-32C and the header padded out to a page.
package kmer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"gnumap/internal/binfmt"
)

// IndexMagic identifies a persisted seed-index file.
var IndexMagic = [8]byte{'G', 'N', 'U', 'M', 'A', 'P', 'I', 'X'}

// IndexVersion is the current on-disk format version.
const IndexVersion = 2

// ixHeaderLen is the exact v2 header size.
const ixHeaderLen = 32 + 8 + 8 + 4 + 4 + 4 + 4 + 8 + 8 + 8 + 3*4

// ixPage is the header block size; the first section starts here so
// every section offset is page-aligned relative to the mmap base.
const ixPage = 4096

// ixFrame is the index container: CRC-32C sections, and v2's one header
// length as the bound on what a file may declare.
var ixFrame = binfmt.Frame{Magic: IndexMagic, Version: IndexVersion, CRC: crc32.MakeTable(crc32.Castagnoli), MaxHeader: ixHeaderLen}

// Typed failure modes of the index loader, mirroring package ckpt:
// every load error wraps exactly one of these. The first four are the
// shared container sentinels (internal/binfmt).
var (
	// ErrNotIndex: the data does not start with the magic bytes.
	ErrNotIndex = binfmt.ErrMagic
	// ErrVersion: the format version is not supported by this build.
	ErrVersion = binfmt.ErrVersion
	// ErrTruncated: the data ends before a declared section does.
	ErrTruncated = binfmt.ErrTruncated
	// ErrChecksum: a section's CRC does not match its contents.
	ErrChecksum = binfmt.ErrChecksum
	// ErrCorrupt: the checksummed framing parses but the declared
	// structure is impossible (header not v2-sized, directory not
	// power-of-two sized, counts out of range, trailing bytes).
	ErrCorrupt = errors.New("kmer: corrupt seed-index structure")
	// ErrRefMismatch: the index was built for a different reference (or
	// different seed parameters) than the one being mapped.
	ErrRefMismatch = errors.New("kmer: seed-index reference mismatch")
)

// indexHeader is the fixed v2 header as it lies on disk: encoding/binary
// renders the fields in declaration order, little-endian, unpadded —
// the reference fingerprint, the seed parameters, the section element
// counts, and one CRC-32C per section.
type indexHeader struct {
	RefDigest         [32]byte
	RefLen, SeqLen    int64
	K, MaxStore       int32
	PartBits          uint32
	_                 uint32 // reserved
	NParts            int64
	NSlots, NRecs     int64
	CrcSlotOff        uint32
	CrcSlots, CrcRecs uint32
}

// IndexInfo is the publicly inspectable part of a persisted index
// header (ReadIndexInfo) — enough for a CLI to adopt the stored seed
// length and to explain fingerprint mismatches.
type IndexInfo struct {
	RefDigest [32]byte
	RefLen    int64
	SeqLen    int64
	K         int
	MaxStore  int
	Slots     int64
	// Records counts the int32 words of the record array: positions
	// plus two count words per multi-occurrence class.
	Records   int64
	FileBytes int64
}

// indexLayout maps a header to section byte offsets.
type indexLayout struct {
	slotOff, slots, recs int64
	size                 int64
}

// layoutFor derives section offsets, rejecting headers whose declared
// counts are impossible (overflow, int32 position cursors exceeded).
func layoutFor(h *indexHeader) (indexLayout, error) {
	var l indexLayout
	if h.PartBits < 1 || h.PartBits > 16 || h.NParts != 1<<h.PartBits {
		return l, fmt.Errorf("%w: %d partitions for %d partition bits", ErrCorrupt, h.NParts, h.PartBits)
	}
	if h.K < 1 || h.K > 32 {
		return l, fmt.Errorf("%w: seed length %d", ErrCorrupt, h.K)
	}
	if h.MaxStore < 1 {
		return l, fmt.Errorf("%w: max-store %d", ErrCorrupt, h.MaxStore)
	}
	if h.SeqLen < 0 || h.SeqLen > 1<<31-1 || h.RefLen < 0 {
		return l, fmt.Errorf("%w: sequence length %d", ErrCorrupt, h.SeqLen)
	}
	// A slot entry holds a record offset in 32 bits, and slots can be at
	// most 4x the distinct class count, itself bounded by the sequence
	// length.
	if h.NRecs < 0 || h.NRecs > math.MaxUint32 || h.NSlots < 0 || h.NSlots > 1<<33 {
		return l, fmt.Errorf("%w: %d slots / %d record words", ErrCorrupt, h.NSlots, h.NRecs)
	}
	l.slotOff = ixPage
	l.slots = (l.slotOff + (h.NParts+1)*8 + 63) &^ 63
	l.recs = l.slots + h.NSlots*16
	l.size = l.recs + h.NRecs*4
	return l, nil
}

// parseIndexHeader validates the preamble and the CRC-guarded header
// from the first bytes of a file (at least the first ixPage bytes, or
// the whole file when smaller).
func parseIndexHeader(block []byte) (*indexHeader, error) {
	hb, err := ixFrame.ParsePreamble(block)
	// v2 has exactly one header length, so a file declaring any other is
	// structurally impossible, not "too large": that keeps the loader's
	// six-sentinel contract (FuzzDecodeIndex) as it was.
	if errors.Is(err, binfmt.ErrTooLarge) || (err == nil && len(hb) != ixHeaderLen) {
		return nil, fmt.Errorf("%w: declared header length is not v2's %d", ErrCorrupt, ixHeaderLen)
	}
	if err != nil {
		return nil, err
	}
	h := &indexHeader{}
	if err := binary.Read(bytes.NewReader(hb), binary.LittleEndian, h); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err) // unreachable: hb is exactly the struct's size
	}
	return h, nil
}

// EncodeIndex serializes a built index for the given reference
// fingerprint. Large indexes should prefer WriteIndexFile, which
// streams sections without concatenating the whole file in memory.
func EncodeIndex(ix *LargeIndex, refDigest [32]byte, refLen int64) []byte {
	var buf bytes.Buffer
	if err := writeIndex(&buf, ix, refDigest, refLen); err != nil {
		// A built index always lays out, and a bytes.Buffer write
		// cannot fail; this is unreachable.
		panic(err)
	}
	return buf.Bytes()
}

// writeIndex streams the file image: the framed header padded to a
// page, then the three sections at their layout offsets.
func writeIndex(w io.Writer, ix *LargeIndex, refDigest [32]byte, refLen int64) error {
	secs := [3][]byte{binfmt.Bytes(ix.slotOff), binfmt.Bytes(ix.slots), binfmt.Bytes(ix.recs)}
	h := &indexHeader{
		RefDigest: refDigest, RefLen: refLen, SeqLen: int64(ix.seqLen),
		K: int32(ix.k), MaxStore: int32(ix.maxStore), PartBits: uint32(ix.partBits),
		NParts: int64(len(ix.slotOff)) - 1,
		NSlots: int64(len(ix.slots)) / 2, NRecs: int64(len(ix.recs)),
		CrcSlotOff: ixFrame.Sum(secs[0]), CrcSlots: ixFrame.Sum(secs[1]), CrcRecs: ixFrame.Sum(secs[2]),
	}
	lay, err := layoutFor(h)
	if err != nil {
		return err
	}
	var hb bytes.Buffer
	binary.Write(&hb, binary.LittleEndian, h) // a fixed-size struct into a bytes.Buffer cannot fail
	block := ixFrame.AppendPreamble(make([]byte, 0, ixPage), hb.Bytes())
	if _, err := w.Write(block[:ixPage]); err != nil { // zero padding to the page
		return err
	}
	written := int64(ixPage)
	var pad [64]byte
	for i, off := range []int64{lay.slotOff, lay.slots, lay.recs} {
		if _, err := w.Write(pad[:off-written]); err != nil {
			return err
		}
		if _, err := w.Write(secs[i]); err != nil {
			return err
		}
		written = off + int64(len(secs[i]))
	}
	return nil
}

// WriteIndexFile atomically persists the index for the reference with
// the given fingerprint (binfmt.WriteFileAtomic; sections stream to the
// temp file without being concatenated in memory). Returns the file
// size.
func WriteIndexFile(path string, ix *LargeIndex, refDigest [32]byte, refLen int64) (int64, error) {
	if ix.mapped != nil {
		return 0, fmt.Errorf("kmer: refusing to rewrite an mmap-loaded index")
	}
	return binfmt.WriteFileAtomic(path, func(w io.Writer) error {
		return writeIndex(w, ix, refDigest, refLen)
	})
}

// LoadOptions controls LoadIndexFile.
type LoadOptions struct {
	// RefDigest/RefLen pin the index to the reference about to be
	// mapped; a mismatch returns ErrRefMismatch. Both zero skips the
	// check (inspection tooling).
	RefDigest [32]byte
	RefLen    int64
	// Verify additionally checks every section CRC on the mmap path
	// (the copy path always verifies). Costs a full file scan.
	Verify bool
	// NoMmap forces the portable read + decode-copy path.
	NoMmap bool
}

// openIndex opens a persisted index and validates what its header
// block alone can show: the preamble, the header CRC and the layout the
// header declares. The caller closes the file.
func openIndex(path string) (f *os.File, size int64, h *indexHeader, lay indexLayout, err error) {
	if f, err = os.Open(path); err != nil {
		return nil, 0, nil, lay, err
	}
	fail := func(err error) (*os.File, int64, *indexHeader, indexLayout, error) {
		f.Close()
		return nil, 0, nil, lay, fmt.Errorf("%s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	block := make([]byte, min(st.Size(), ixPage))
	if err := binfmt.ReadFull(f, block, "header block"); err != nil {
		return fail(err)
	}
	if h, err = parseIndexHeader(block); err != nil {
		return fail(err)
	}
	if lay, err = layoutFor(h); err != nil {
		return fail(err)
	}
	return f, st.Size(), h, lay, nil
}

// checkSize holds an image to exactly the length its header declares.
func (l indexLayout) checkSize(size int64) error {
	switch {
	case size < l.size:
		return fmt.Errorf("%w: %d bytes of %d", ErrTruncated, size, l.size)
	case size > l.size:
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, size-l.size)
	}
	return nil
}

// LoadIndexFile opens a persisted index. On little-endian unix hosts
// the file is mmap'd and the slot arrays are zero-copy views of the
// mapping (close the index to release it); elsewhere — or with NoMmap —
// the file is read and decoded with full CRC verification. Every
// failure wraps one of the typed sentinel errors.
func LoadIndexFile(path string, opt LoadOptions) (*LargeIndex, error) {
	f, size, h, lay, err := openIndex(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := lay.checkSize(size); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := checkRef(h, opt); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !opt.NoMmap && mmapSupported && binfmt.HostLittle {
		if b, merr := mmapFile(f, lay.size); merr == nil {
			ix, err := indexFromBytes(h, lay, b, b, opt.Verify)
			if err != nil {
				munmap(b)
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			return ix, nil
		}
		// mmap unavailable for this file: fall through to the copy path.
	}
	data := make([]byte, lay.size)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("kmer: %s: %w", path, err)
	}
	if err := binfmt.ReadFull(f, data, "body"); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ix, err := indexFromBytes(h, lay, data, nil, true)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ix, nil
}

// checkRef validates the reference fingerprint against expectations.
func checkRef(h *indexHeader, opt LoadOptions) error {
	if opt.RefLen == 0 && opt.RefDigest == ([32]byte{}) {
		return nil
	}
	if h.RefDigest != opt.RefDigest {
		return fmt.Errorf("%w: reference digest %x != %x", ErrRefMismatch, h.RefDigest[:8], opt.RefDigest[:8])
	}
	if h.RefLen != opt.RefLen {
		return fmt.Errorf("%w: reference length %d != %d", ErrRefMismatch, h.RefLen, opt.RefLen)
	}
	return nil
}

// DecodeIndex parses an index from an in-memory image with full
// section CRC verification — the portable load path and the fuzz
// surface. The returned index may alias data; callers must not mutate
// it afterwards.
func DecodeIndex(data []byte) (*LargeIndex, error) {
	h, err := parseIndexHeader(data)
	if err != nil {
		return nil, err
	}
	lay, err := layoutFor(h)
	if err != nil {
		return nil, err
	}
	if err := lay.checkSize(int64(len(data))); err != nil {
		return nil, err
	}
	return indexFromBytes(h, lay, data, nil, true)
}

// indexFromBytes builds the index over an on-disk image (an mmap or a
// read buffer), optionally CRC-verifying sections, and always
// validating the directory structure.
func indexFromBytes(h *indexHeader, lay indexLayout, data, mapped []byte, verify bool) (*LargeIndex, error) {
	dir := data[lay.slotOff : lay.slotOff+(h.NParts+1)*8]
	sb := data[lay.slots : lay.slots+h.NSlots*16]
	rb := data[lay.recs : lay.recs+h.NRecs*4]
	if verify {
		for _, s := range []struct {
			name string
			b    []byte
			want uint32
		}{{"slotOff", dir, h.CrcSlotOff}, {"slots", sb, h.CrcSlots}, {"recs", rb, h.CrcRecs}} {
			if ixFrame.Sum(s.b) != s.want {
				return nil, fmt.Errorf("%w: %s section", ErrChecksum, s.name)
			}
		}
	}
	ix := &LargeIndex{
		k: int(h.K), seqLen: int(h.SeqLen), maxStore: int(h.MaxStore), partBits: uint(h.PartBits),
		slotOff: binfmt.Slice[int64](dir), slots: binfmt.Slice[uint64](sb), recs: binfmt.Slice[int32](rb),
		mapped: mapped,
	}
	// Directory structure: monotone, power-of-two (or empty) partition
	// regions covering exactly the slot array. With this validated,
	// probe's arithmetic stays inside the slots for any section
	// contents, and fill bounds-checks what an entry points at.
	if ix.slotOff[0] != 0 || ix.slotOff[h.NParts] != h.NSlots {
		return nil, fmt.Errorf("%w: directory bounds", ErrCorrupt)
	}
	for p := int64(0); p < h.NParts; p++ {
		size := ix.slotOff[p+1] - ix.slotOff[p]
		if size < 0 || (size != 0 && size&(size-1) != 0) {
			return nil, fmt.Errorf("%w: partition %d size %d", ErrCorrupt, p, size)
		}
	}
	return ix, nil
}

// ReadIndexInfo reads and validates only the header of a persisted
// index — cheap inspection for CLIs (adopting the stored seed length,
// explaining mismatches) without loading the sections.
func ReadIndexInfo(path string) (IndexInfo, error) {
	f, size, h, _, err := openIndex(path)
	if err != nil {
		return IndexInfo{}, err
	}
	f.Close()
	return IndexInfo{
		RefDigest: h.RefDigest, RefLen: h.RefLen, SeqLen: h.SeqLen,
		K: int(h.K), MaxStore: int(h.MaxStore), Slots: h.NSlots, Records: h.NRecs,
		FileBytes: size,
	}, nil
}

// Close releases the mmap backing of a file-loaded index; it is a
// no-op for heap-built indexes. The index must not be used afterwards.
func (ix *LargeIndex) Close() error {
	if ix.mapped == nil {
		return nil
	}
	b := ix.mapped
	ix.mapped = nil
	ix.slotOff, ix.slots, ix.recs = nil, nil, nil
	return munmap(b)
}
