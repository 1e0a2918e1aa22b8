package kmer

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gnumap/internal/binfmt"
	"gnumap/internal/dna"
)

// buildTestIndex returns a built index plus its reference fingerprint,
// sized so every section is non-trivial and at least one seed is capped.
func buildTestIndex(t *testing.T) (*LargeIndex, [32]byte, int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	seq := randSeq(rng, 12000, 0.01)
	// A repeat run so the cap path serializes too.
	for i := 4000; i < 4200; i++ {
		seq[i] = dna.Code(3)
	}
	ix, err := NewLargeWith(seq, 20, LargeConfig{MaxStore: 8})
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("test-reference"))
	return ix, digest, int64(len(seq))
}

func sameIndex(t *testing.T, a, b *LargeIndex) {
	t.Helper()
	if a.k != b.k || a.seqLen != b.seqLen || a.maxStore != b.maxStore || a.partBits != b.partBits {
		t.Fatalf("scalar fields differ: %d/%d/%d/%d vs %d/%d/%d/%d",
			a.k, a.seqLen, a.maxStore, a.partBits, b.k, b.seqLen, b.maxStore, b.partBits)
	}
	if !reflect.DeepEqual(a.slotOff, b.slotOff) || !reflect.DeepEqual(a.slots, b.slots) ||
		!reflect.DeepEqual(a.recs, b.recs) {
		t.Fatal("section arrays differ after reload")
	}
}

func TestIndexRoundTrip(t *testing.T) {
	ix, digest, refLen := buildTestIndex(t)
	path := filepath.Join(t.TempDir(), "ref.gnix")
	n, err := WriteIndexFile(path, ix, digest, refLen)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != n {
		t.Fatalf("reported %d bytes, file has %d", n, st.Size())
	}
	opt := LoadOptions{RefDigest: digest, RefLen: refLen}
	for _, tc := range []struct {
		name string
		opt  LoadOptions
	}{
		{"mmap", opt},
		{"mmap-verify", LoadOptions{RefDigest: digest, RefLen: refLen, Verify: true}},
		{"copy", LoadOptions{RefDigest: digest, RefLen: refLen, NoMmap: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := LoadIndexFile(path, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer got.Close()
			sameIndex(t, ix, got)
			// Candidate generation must be identical through the reload.
			rng := rand.New(rand.NewSource(9))
			read := randSeq(rng, 62, 0)
			qo := CandidateOptions{MinVotes: 1, MaxBucket: 1024, MaxCandidates: 8}
			if !reflect.DeepEqual(ix.Candidates(read, qo), got.Candidates(read, qo)) {
				t.Fatal("candidates diverge after reload")
			}
		})
	}
	// Double-close must be safe.
	got, err := LoadIndexFile(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeIndex(t *testing.T) {
	ix, digest, refLen := buildTestIndex(t)
	img := EncodeIndex(ix, digest, refLen)
	got, err := DecodeIndex(img)
	if err != nil {
		t.Fatal(err)
	}
	sameIndex(t, ix, got)
}

func TestReadIndexInfo(t *testing.T) {
	ix, digest, refLen := buildTestIndex(t)
	path := filepath.Join(t.TempDir(), "ref.gnix")
	n, err := WriteIndexFile(path, ix, digest, refLen)
	if err != nil {
		t.Fatal(err)
	}
	info, err := ReadIndexInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.RefDigest != digest || info.RefLen != refLen ||
		info.K != 20 || info.MaxStore != 8 ||
		info.SeqLen != int64(ix.seqLen) ||
		info.Slots != int64(len(ix.slots)/2) ||
		info.Records != int64(len(ix.recs)) ||
		info.FileBytes != n {
		t.Fatalf("info = %+v", info)
	}
}

func TestLoadRefMismatch(t *testing.T) {
	ix, digest, refLen := buildTestIndex(t)
	path := filepath.Join(t.TempDir(), "ref.gnix")
	if _, err := WriteIndexFile(path, ix, digest, refLen); err != nil {
		t.Fatal(err)
	}
	wrong := digest
	wrong[0] ^= 0xff
	if _, err := LoadIndexFile(path, LoadOptions{RefDigest: wrong, RefLen: refLen}); !errors.Is(err, ErrRefMismatch) {
		t.Fatalf("wrong digest: err = %v, want ErrRefMismatch", err)
	}
	if _, err := LoadIndexFile(path, LoadOptions{RefDigest: digest, RefLen: refLen + 1}); !errors.Is(err, ErrRefMismatch) {
		t.Fatalf("wrong length: err = %v, want ErrRefMismatch", err)
	}
	// Zero fingerprint skips the check (inspection tooling).
	got, err := LoadIndexFile(path, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got.Close()
}

// corruptLoad writes a mutated copy of a valid image and loads it both
// ways, asserting each returns an error wrapping want.
func corruptLoad(t *testing.T, img []byte, want error, name string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.gnix")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, opt := range []LoadOptions{{Verify: true}, {NoMmap: true}} {
		ix, err := LoadIndexFile(path, opt)
		if ix != nil {
			ix.Close()
		}
		if !errors.Is(err, want) {
			t.Fatalf("%s (NoMmap=%v): err = %v, want %v", name, opt.NoMmap, err, want)
		}
	}
}

func TestLoadTypedErrors(t *testing.T) {
	ix, digest, refLen := buildTestIndex(t)
	img := EncodeIndex(ix, digest, refLen)

	bad := append([]byte(nil), img...)
	bad[0] = 'X'
	corruptLoad(t, bad, ErrNotIndex, "bad magic")

	bad = append([]byte(nil), img...)
	bad[8] = IndexVersion + 1 // version is outside the header CRC
	corruptLoad(t, bad, ErrVersion, "future version")

	corruptLoad(t, img[:len(img)-5], ErrTruncated, "truncated body")
	corruptLoad(t, img[:100], ErrTruncated, "truncated header")
	corruptLoad(t, append(append([]byte(nil), img...), 0), ErrCorrupt, "trailing bytes")

	bad = append([]byte(nil), img...)
	bad[40] ^= 0x01 // inside the CRC-guarded header (refLen field)
	corruptLoad(t, bad, ErrChecksum, "header bit-flip")

	bad = append([]byte(nil), img...)
	bad[len(bad)-1] ^= 0x01 // last record byte
	corruptLoad(t, bad, ErrChecksum, "section bit-flip")

	if _, err := DecodeIndex([]byte("short")); !errors.Is(err, ErrNotIndex) {
		t.Fatalf("not an index: %v", err)
	}
}

// TestMmapSkipsSectionCRC documents the trust model: without Verify the
// mmap path accepts a section bit-flip (only the header is checked) but
// lookups still never panic; the copy path always catches it.
func TestMmapSkipsSectionCRC(t *testing.T) {
	if !mmapSupported || !binfmt.HostLittle {
		t.Skip("no mmap fast path on this host")
	}
	ix, digest, refLen := buildTestIndex(t)
	img := EncodeIndex(ix, digest, refLen)
	img[len(img)-1] ^= 0x01
	path := filepath.Join(t.TempDir(), "flip.gnix")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadIndexFile(path, LoadOptions{})
	if err != nil {
		t.Fatalf("mmap fast path rejected a section flip it does not check: %v", err)
	}
	defer got.Close()
	rng := rand.New(rand.NewSource(3))
	read := randSeq(rng, 62, 0)
	got.Candidates(read, CandidateOptions{MinVotes: 1, MaxBucket: 1024})
}

func TestWriteRefusesMappedIndex(t *testing.T) {
	ix, digest, refLen := buildTestIndex(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "ref.gnix")
	if _, err := WriteIndexFile(path, ix, digest, refLen); err != nil {
		t.Fatal(err)
	}
	got, err := LoadIndexFile(path, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.mapped == nil {
		t.Skip("load took the copy path on this host")
	}
	if _, err := WriteIndexFile(filepath.Join(dir, "again.gnix"), got, digest, refLen); err == nil {
		t.Fatal("WriteIndexFile accepted an mmap-loaded index")
	}
}

// goldenSeq is the sequence both golden files index: 400 random bases
// with 1% N and a poly-G run, at k = 16 with MaxStore 4.
func goldenSeq() (dna.Seq, [32]byte) {
	rng := rand.New(rand.NewSource(91))
	seq := randSeq(rng, 400, 0.01)
	for i := 100; i < 160; i++ {
		seq[i] = dna.Code(2)
	}
	return seq, sha256.Sum256([]byte("golden-reference"))
}

// TestGoldenIndexBytes pins the on-disk format: testdata/golden-v2.gnix
// was written by WriteIndexFile when the format moved to canonical keys
// (version 2). It must load on both paths, answer like a fresh build of
// the same sequence, and re-encode — in memory and through the atomic
// file writer — to the same bytes.
func TestGoldenIndexBytes(t *testing.T) {
	path := filepath.Join("testdata", "golden-v2.gnix")
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seq, digest := goldenSeq()
	built, err := NewLargeWith(seq, 16, LargeConfig{MaxStore: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, noMmap := range []bool{false, true} {
		ix, err := LoadIndexFile(path, LoadOptions{RefDigest: digest, RefLen: int64(len(seq)), Verify: true, NoMmap: noMmap})
		if err != nil {
			t.Fatalf("golden index does not load (NoMmap=%v): %v", noMmap, err)
		}
		sameIndex(t, built, ix)
		ix.Close()
	}
	ix, err := DecodeIndex(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodeIndex(ix, digest, int64(len(seq))); !bytes.Equal(got, golden) {
		t.Error("re-encoded golden index differs from the committed bytes")
	}
	again := filepath.Join(t.TempDir(), "again.gnix")
	if _, err := WriteIndexFile(again, ix, digest, int64(len(seq))); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(again); err != nil || !bytes.Equal(got, golden) {
		t.Errorf("rewritten golden index differs (%v)", err)
	}
}

// TestGoldenV1Refused: testdata/golden.gnix is the same index in format
// version 1 (every k-mer keyed apart). This build reads only version 2,
// so both load paths and the decoder refuse it with ErrVersion — before
// the reference check, which the file would pass.
func TestGoldenV1Refused(t *testing.T) {
	path := filepath.Join("testdata", "golden.gnix")
	seq, digest := goldenSeq()
	for _, noMmap := range []bool{false, true} {
		ix, err := LoadIndexFile(path, LoadOptions{RefDigest: digest, RefLen: int64(len(seq)), Verify: true, NoMmap: noMmap})
		if ix != nil {
			ix.Close()
		}
		if !errors.Is(err, ErrVersion) {
			t.Errorf("v1 index (NoMmap=%v): err = %v, want ErrVersion", noMmap, err)
		}
	}
	if _, err := ReadIndexInfo(path); !errors.Is(err, ErrVersion) {
		t.Errorf("v1 index info: err = %v, want ErrVersion", err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeIndex(img); !errors.Is(err, ErrVersion) {
		t.Errorf("v1 image: err = %v, want ErrVersion", err)
	}
}
