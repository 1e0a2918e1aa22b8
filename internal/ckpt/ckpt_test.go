package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func sampleCheckpoint() *Checkpoint {
	cp := &Checkpoint{
		ReadsConsumed: 12345,
		Mapped:        12000,
		Unmapped:      345,
		Locations:     17890,
		State:         []byte("gob-encoded accumulator state stand-in"),
	}
	cp.Fingerprint = Fingerprint{
		RefDigest:    DigestParams("reference bytes"),
		RefLen:       120000,
		Memory:       1,
		Band:         18,
		Ploidy:       2,
		ParamsDigest: DigestParams("params rendering"),
	}
	return cp
}

func TestRoundTrip(t *testing.T) {
	cp := sampleCheckpoint()
	data := Encode(cp)
	got, err := Decode(data, MaxPayloadFor(120000))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Fingerprint != cp.Fingerprint {
		t.Errorf("fingerprint mismatch: %+v != %+v", got.Fingerprint, cp.Fingerprint)
	}
	if got.ReadsConsumed != cp.ReadsConsumed || got.Mapped != cp.Mapped ||
		got.Unmapped != cp.Unmapped || got.Locations != cp.Locations {
		t.Errorf("watermark mismatch: %+v", got)
	}
	if !bytes.Equal(got.State, cp.State) {
		t.Errorf("state mismatch")
	}
}

func TestRoundTripStream(t *testing.T) {
	cp := sampleCheckpoint()
	var buf bytes.Buffer
	n, err := WriteTo(&buf, cp)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadFrom(&buf, MaxPayloadFor(120000))
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if got.Fingerprint != cp.Fingerprint || !bytes.Equal(got.State, cp.State) {
		t.Errorf("stream round trip mismatch")
	}
}

func TestEmptyState(t *testing.T) {
	cp := sampleCheckpoint()
	cp.State = nil
	got, err := Decode(Encode(cp), 1)
	if err != nil {
		t.Fatalf("Decode empty state: %v", err)
	}
	if len(got.State) != 0 {
		t.Errorf("state = %q, want empty", got.State)
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	valid := Encode(sampleCheckpoint())
	maxP := MaxPayloadFor(120000)

	t.Run("not-checkpoint", func(t *testing.T) {
		for _, data := range [][]byte{nil, []byte("x"), []byte("gob-like legacy blob that is long enough")} {
			if _, err := Decode(data, maxP); !errors.Is(err, ErrNotCheckpoint) {
				t.Errorf("Decode(%q) = %v, want ErrNotCheckpoint", data, err)
			}
		}
	})

	t.Run("version-skew", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[8] = 99 // version low byte
		if _, err := Decode(bad, maxP); !errors.Is(err, ErrVersion) {
			t.Errorf("got %v, want ErrVersion", err)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{9, 13, 20, len(valid) / 2, len(valid) - 1} {
			if _, err := Decode(valid[:cut], maxP); err == nil {
				t.Errorf("Decode(valid[:%d]) succeeded", cut)
			} else if !errors.Is(err, ErrTruncated) {
				t.Errorf("Decode(valid[:%d]) = %v, want ErrTruncated", cut, err)
			}
		}
	})

	t.Run("bit-flips", func(t *testing.T) {
		// Flip one bit at every offset past the version field; every
		// variant must be rejected (header CRC, payload CRC, or a
		// length that no longer frames).
		for off := 10; off < len(valid); off++ {
			bad := append([]byte(nil), valid...)
			bad[off] ^= 0x40
			if _, err := Decode(bad, maxP); err == nil {
				t.Fatalf("bit flip at offset %d decoded successfully", off)
			}
		}
	})

	t.Run("too-large", func(t *testing.T) {
		if _, err := Decode(valid, 4); !errors.Is(err, ErrTooLarge) {
			t.Errorf("got %v, want ErrTooLarge", err)
		}
		if _, err := Decode(valid, 0); !errors.Is(err, ErrTooLarge) {
			t.Errorf("maxPayload=0: got %v, want ErrTooLarge", err)
		}
	})
}

func TestFingerprintCheck(t *testing.T) {
	base := sampleCheckpoint().Fingerprint
	if err := base.Check(base); err != nil {
		t.Fatalf("self check: %v", err)
	}
	mutations := []func(*Fingerprint){
		func(f *Fingerprint) { f.RefDigest[0] ^= 1 },
		func(f *Fingerprint) { f.RefLen++ },
		func(f *Fingerprint) { f.Memory++ },
		func(f *Fingerprint) { f.Band++ },
		func(f *Fingerprint) { f.Ploidy++ },
		func(f *Fingerprint) { f.ParamsDigest[0] ^= 1 },
	}
	for i, mut := range mutations {
		got := base
		mut(&got)
		if err := base.Check(got); !errors.Is(err, ErrMismatch) {
			t.Errorf("mutation %d: got %v, want ErrMismatch", i, err)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	cp := sampleCheckpoint()
	n, err := WriteFile(path, cp)
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if fi.Size() != n {
		t.Errorf("size %d, WriteFile reported %d", fi.Size(), n)
	}

	// Overwrite with a newer checkpoint; the old one is fully replaced.
	cp2 := sampleCheckpoint()
	cp2.ReadsConsumed = 99999
	if _, err := WriteFile(path, cp2); err != nil {
		t.Fatalf("WriteFile overwrite: %v", err)
	}
	got, err := ReadFile(path, MaxPayloadFor(120000))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.ReadsConsumed != 99999 {
		t.Errorf("ReadsConsumed = %d, want 99999", got.ReadsConsumed)
	}

	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.ckpt" {
		t.Errorf("directory litter: %v", entries)
	}
}

// TestCrashMidWriteLeavesPriorCheckpoint simulates the torn-write crash
// window: a partial "next" checkpoint exists only as a temp file, never
// renamed. The prior checkpoint at the real path must stay loadable and
// the temp must never be picked up.
func TestCrashMidWriteLeavesPriorCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	prior := sampleCheckpoint()
	if _, err := WriteFile(path, prior); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	// A crash mid-write leaves a half-written temp file alongside.
	next := sampleCheckpoint()
	next.ReadsConsumed = 55555
	torn := Encode(next)
	if err := os.WriteFile(filepath.Join(dir, "run.ckpt.tmp.123"), torn[:len(torn)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path, MaxPayloadFor(120000))
	if err != nil {
		t.Fatalf("prior checkpoint unreadable after simulated crash: %v", err)
	}
	if got.ReadsConsumed != prior.ReadsConsumed {
		t.Errorf("ReadsConsumed = %d, want prior %d", got.ReadsConsumed, prior.ReadsConsumed)
	}
}

func TestReadFileMissing(t *testing.T) {
	_, err := ReadFile(filepath.Join(t.TempDir(), "absent.ckpt"), 1024)
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("got %v, want os.ErrNotExist", err)
	}
}

// TestEveryCutPointIsTruncated: a checkpoint cut anywhere after its
// eight magic bytes is a truncated checkpoint through both entry points
// (ReadFrom used to call a 10-byte file with a valid magic "not a
// checkpoint"); cut inside the magic it is not a checkpoint at all.
func TestEveryCutPointIsTruncated(t *testing.T) {
	valid := Encode(sampleCheckpoint())
	maxP := MaxPayloadFor(120000)
	for cut := 0; cut < len(valid); cut++ {
		want := ErrTruncated
		if cut < len(Magic) {
			want = ErrNotCheckpoint
		}
		if _, err := Decode(valid[:cut], maxP); !errors.Is(err, want) {
			t.Errorf("Decode(valid[:%d]) = %v, want %v", cut, err, want)
		}
		if _, err := ReadFrom(bytes.NewReader(valid[:cut]), maxP); !errors.Is(err, want) {
			t.Errorf("ReadFrom(valid[:%d]) = %v, want %v", cut, err, want)
		}
	}
}

// TestGoldenBytes pins the on-disk format: testdata/golden.ckpt was
// written by the encoder as it stood before the container moved to
// internal/binfmt, and must decode to the sample and re-encode to the
// same bytes — in memory and through the atomic file writer.
func TestGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ReadFile(filepath.Join("testdata", "golden.ckpt"), MaxPayloadFor(120000))
	if err != nil {
		t.Fatalf("golden checkpoint does not load: %v", err)
	}
	want := sampleCheckpoint()
	if cp.Fingerprint != want.Fingerprint || cp.ReadsConsumed != want.ReadsConsumed || cp.Mapped != want.Mapped ||
		cp.Unmapped != want.Unmapped || cp.Locations != want.Locations || !bytes.Equal(cp.State, want.State) {
		t.Errorf("golden checkpoint decoded to %+v", cp)
	}
	if got := Encode(cp); !bytes.Equal(got, golden) {
		t.Errorf("re-encoded golden checkpoint differs:\n got %x\nwant %x", got, golden)
	}
	path := filepath.Join(t.TempDir(), "again.ckpt")
	if _, err := WriteFile(path, cp); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, golden) {
		t.Errorf("rewritten golden checkpoint differs (%v)", err)
	}
}
