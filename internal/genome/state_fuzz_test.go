package genome

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzLoadStateBytes hands arbitrary bytes to the GST state codec of
// every layout (the checkpoint payload and the cluster wire format):
// LoadStateBytes never panics, every rejection wraps one of the typed
// sentinels, and a blob it accepts is the blob the accumulator
// serializes back, byte for byte.
func FuzzLoadStateBytes(f *testing.F) {
	const length = 9
	for i, m := range allModes() {
		a, err := New(m, length)
		if err != nil {
			f.Fatal(err)
		}
		a.AddRange(2, []Vec{{0.7, 0.3, 0, 0, 0}, {0, 0, 1, 0, 0}}, 2)
		good, err := a.State()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(good, uint8(i))
		f.Add(good, uint8(i+1))             // another layout's blob
		f.Add(good[:len(good)-1], uint8(i)) // truncated byte section
		f.Add(good[:stateHdrLen+4], uint8(i))
		f.Add(append(bytes.Clone(good), 0), uint8(i)) // trailing byte
		bad := bytes.Clone(good)
		bad[4]++ // version
		f.Add(bad, uint8(i))
		bad = bytes.Clone(good)
		binary.LittleEndian.PutUint64(bad[5:], length+1)
		f.Add(bad, uint8(i))
		bad = bytes.Clone(good)
		binary.LittleEndian.PutUint64(bad[stateHdrLen:], 1<<62) // float count that overflows 4*n
		f.Add(bad, uint8(i))
	}
	f.Add([]byte("junk"), uint8(0))
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		modes := allModes()
		a, err := New(modes[int(mode)%len(modes)], length)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.LoadStateBytes(data); err != nil {
			for _, s := range []error{ErrStateMagic, ErrStateVersion, ErrStateTruncated, ErrStateMismatch} {
				if errors.Is(err, s) {
					return
				}
			}
			t.Fatalf("untyped state error: %v", err)
		}
		back, err := a.State()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted blob does not round-trip:\n in %x\nout %x", data, back)
		}
	})
}
