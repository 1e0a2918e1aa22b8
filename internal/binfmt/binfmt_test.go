package binfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"
)

var testFrame = Frame{
	Magic: [8]byte{'B', 'I', 'N', 'F', 'M', 'T', 'T', 'S'}, Version: 3,
	CRC: crc32.MakeTable(crc32.Castagnoli), MaxHeader: 64,
}

func TestPreambleRoundTrip(t *testing.T) {
	for _, header := range [][]byte{nil, []byte("h"), bytes.Repeat([]byte{0xA5}, 64)} {
		img := testFrame.AppendPreamble([]byte("prefix"), header)[len("prefix"):]
		if len(img) != PreambleLen(len(header)) {
			t.Fatalf("preamble of %d-byte header is %d bytes, PreambleLen says %d", len(header), len(img), PreambleLen(len(header)))
		}
		img = append(img, "body"...)
		got, err := testFrame.ParsePreamble(img)
		if err != nil || !bytes.Equal(got, header) {
			t.Fatalf("ParsePreamble = %q, %v; want %q", got, err, header)
		}
		// The stream parser stops exactly after the header CRC, and is
		// indifferent to how the bytes arrive.
		r := bytes.NewReader(img)
		got, err = testFrame.ReadPreamble(iotest.OneByteReader(r))
		if err != nil || !bytes.Equal(got, header) {
			t.Fatalf("ReadPreamble = %q, %v; want %q", got, err, header)
		}
		if rest, _ := io.ReadAll(r); string(rest) != "body" {
			t.Fatalf("reader left at %q, want the body", rest)
		}
	}
}

func TestPreambleSentinels(t *testing.T) {
	valid := testFrame.AppendPreamble(nil, []byte("sixteen byte hdr"))
	mutate := func(off int, v byte) []byte {
		b := bytes.Clone(valid)
		b[off] = v
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrMagic},
		{"short magic", valid[:5], ErrMagic},
		{"wrong magic", mutate(3, 'x'), ErrMagic},
		{"version", mutate(8, 4), ErrVersion},
		{"header length past bound", mutate(10, 65), ErrTooLarge},
		{"header length past data", mutate(10, 17), ErrTruncated},
		{"header bit flip", mutate(20, valid[20]^1), ErrChecksum},
		{"crc bit flip", mutate(len(valid)-1, valid[len(valid)-1]^1), ErrChecksum},
	}
	// Every cut after the magic is a truncation, never "not this format".
	for cut := 8; cut < len(valid); cut++ {
		cases = append(cases, struct {
			name string
			data []byte
			want error
		}{"cut", valid[:cut], ErrTruncated})
	}
	for _, c := range cases {
		if _, err := testFrame.ParsePreamble(c.data); !errors.Is(err, c.want) {
			t.Errorf("%s (%d bytes): %v, want %v", c.name, len(c.data), err, c.want)
		}
	}
	// An I/O failure is not a verdict on the data.
	boom := errors.New("boom")
	_, err := testFrame.ReadPreamble(io.MultiReader(bytes.NewReader(valid[:10]), iotest.ErrReader(boom)))
	if !errors.Is(err, boom) || errors.Is(err, ErrTruncated) {
		t.Errorf("reader failure surfaced as %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if n, err := WriteFileAtomic(path, write("first")); err != nil || n != 5 {
		t.Fatalf("WriteFileAtomic = %d, %v", n, err)
	}
	if n, err := WriteFileAtomic(path, write("second!")); err != nil || n != 7 {
		t.Fatalf("overwrite = %d, %v", n, err)
	}
	// A failing callback — after it has already written bytes — leaves
	// the previous file intact.
	boom := errors.New("boom")
	_, err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("callback error lost: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second!" {
		t.Fatalf("after failed write: %q, %v", got, err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Errorf("mode %v, %v; want 0644", fi.Mode(), err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "out.bin" {
		t.Errorf("directory litter: %v", entries)
	}
	if _, err := WriteFileAtomic(filepath.Join(dir, "absent", "x"), write("x")); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}

func TestSliceCodecMatchesEncodingBinary(t *testing.T) {
	i32 := []int32{0, 1, -1, math.MaxInt32, math.MinInt32}
	i64 := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
	u64 := []uint64{0, 1, math.MaxUint64, 0x0102030405060708}
	f32 := []float32{0, 1.5, -2.25, float32(math.Inf(1)), math.Float32frombits(0x7fc00001)}

	// The images encoding/binary writes, per host order the codec may
	// believe it runs on: little-endian as is; a host of the opposite
	// order sees this host's memory byte-swapped, so it must produce the
	// swap of the true image.
	images := func(order binary.AppendByteOrder) (w32, w64, wU, wF []byte) {
		for _, v := range i32 {
			w32 = order.AppendUint32(w32, uint32(v))
		}
		for _, v := range i64 {
			w64 = order.AppendUint64(w64, uint64(v))
		}
		for _, v := range u64 {
			wU = order.AppendUint64(wU, v)
		}
		for _, v := range f32 {
			wF = order.AppendUint32(wF, math.Float32bits(v))
		}
		return
	}
	native := HostLittle
	t.Cleanup(func() { HostLittle = native })
	for _, little := range []bool{native, !native} {
		HostLittle = little
		var order binary.AppendByteOrder = binary.LittleEndian
		if little != native {
			order = binary.BigEndian
		}
		w32, w64, wU, wF := images(order)
		for _, c := range []struct {
			name      string
			got, want []byte
		}{{"int32", Bytes(i32), w32}, {"int64", Bytes(i64), w64}, {"uint64", Bytes(u64), wU}, {"float32", Bytes(f32), wF}} {
			if !bytes.Equal(c.got, c.want) {
				t.Errorf("little=%v %s: Bytes = %x, want %x", little, c.name, c.got, c.want)
			}
		}
		// Decode and Slice invert Bytes at any alignment of the image.
		for pad := 0; pad < 8; pad++ {
			img := append(make([]byte, pad), w64...)[pad:]
			back := make([]int64, len(i64))
			Decode(back, img)
			viewed := Slice[int64](img)
			for i := range back {
				if back[i] != i64[i] || viewed[i] != i64[i] {
					t.Fatalf("little=%v pad %d: int64[%d] = %d / %d, want %d", little, pad, i, back[i], viewed[i], i64[i])
				}
			}
			for i, v := range Slice[float32](append(make([]byte, pad), wF...)[pad:]) {
				if math.Float32bits(v) != math.Float32bits(f32[i]) {
					t.Fatalf("little=%v pad %d: float32[%d] = %v, want %v", little, pad, i, v, f32[i])
				}
			}
		}
		if len(Bytes[int32](nil)) != 0 || len(Slice[uint64](make([]byte, 7))) != 0 {
			t.Errorf("little=%v: empty input did not yield an empty image", little)
		}
	}
}

func TestSliceAliasesAlignedInput(t *testing.T) {
	if !HostLittle {
		t.Skip("zero-copy views need a little-endian host")
	}
	backing := []uint64{1, 2, 3}
	img := Bytes(backing)
	got := Slice[uint64](img)
	got[1] = 99
	if backing[1] != 99 {
		t.Error("aligned little-endian section was copied, not viewed")
	}
}
