package genome

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStateRoundTripAllModes(t *testing.T) {
	for _, m := range allModes() {
		a, err := New(m, 300)
		if err != nil {
			t.Fatal(err)
		}
		a.AddRange(10, []Vec{{0.7, 0.3, 0, 0, 0}, {0, 0, 1, 0, 0}}, 2)
		data, err := a.State()
		if err != nil {
			t.Fatal(err)
		}
		b, err := CloneEmpty(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.LoadStateBytes(data); err != nil {
			t.Fatal(err)
		}
		fa, fb := view(t, a), view(t, b)
		for pos := 0; pos < 300; pos++ {
			va, vb := fa.Vector(pos), fb.Vector(pos)
			for k := range va {
				if math.Abs(va[k]-vb[k]) > 1e-9 {
					t.Fatalf("%v pos %d ch %d: %v vs %v", m, pos, k, va[k], vb[k])
				}
			}
		}
	}
}

func TestLoadStateBytesRejectsMismatch(t *testing.T) {
	a, _ := New(Norm, 10)
	b, _ := New(Norm, 20)
	data, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadStateBytes(data); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("length mismatch: %v, want ErrStateMismatch", err)
	}
	c, _ := New(CharDisc, 10)
	if err := c.LoadStateBytes(data); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("mode mismatch: %v, want ErrStateMismatch", err)
	}
	if err := b.LoadStateBytes([]byte("junk")); !errors.Is(err, ErrStateMagic) {
		t.Errorf("garbage: %v, want ErrStateMagic", err)
	}
	skew := bytes.Clone(data)
	skew[4]++
	if err := a.LoadStateBytes(skew); !errors.Is(err, ErrStateVersion) {
		t.Errorf("version skew: %v, want ErrStateVersion", err)
	}
	for cut := 3; cut < len(data); cut++ {
		if err := a.LoadStateBytes(data[:cut]); !errors.Is(err, ErrStateTruncated) {
			t.Errorf("cut at %d: %v, want ErrStateTruncated", cut, err)
		}
	}
	if err := a.LoadStateBytes(append(bytes.Clone(data), 0)); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("trailing byte: %v, want ErrStateMismatch", err)
	}
}

// TestGoldenStateBytes pins the wire format: one blob per layout,
// written by the codec as it stood before it moved onto
// internal/binfmt's slice codec, must load and serialize back to the
// same bytes.
func TestGoldenStateBytes(t *testing.T) {
	for _, m := range allModes() {
		golden, err := os.ReadFile(filepath.Join("testdata", "golden_"+strings.ToLower(m.String())+".gst"))
		if err != nil {
			t.Fatal(err)
		}
		a, err := New(m, 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.LoadStateBytes(golden); err != nil {
			t.Fatalf("%v: golden blob does not load: %v", m, err)
		}
		if got := view(t, a).Total(3); got < 3.4 || got > 3.6 {
			t.Errorf("%v: position 3 holds mass %v, want the 3.5 the blob was built with", m, got)
		}
		back, err := a.State()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, golden) {
			t.Errorf("%v: re-encoded golden blob differs:\n got %x\nwant %x", m, back, golden)
		}
	}
}
