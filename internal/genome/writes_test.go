package genome

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// The accumulator's write-set: one counter per TileSize-position tile,
// moved by every operation that may change the tile's bytes. It replaced
// a separate region tracker that the mapping engine had to touch beside
// every AddRange; the four TestRegionTracker* tests keep that tracker's
// names (floor tests) over the behaviour that survived the move.

func TestRegionTrackerValidation(t *testing.T) {
	for _, mode := range allModes() {
		acc, err := New(mode, 100)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range Writes(acc, nil) {
			if w != 0 {
				t.Errorf("%v: fresh accumulator has %d writes on tile %d", mode, w, i)
			}
		}
	}
}

// embedded hides the concrete layout behind an embedded Accumulator, as
// a wrapper outside the package would.
type embedded struct{ Accumulator }

// A value that embeds an Accumulator reports the same writes, freezes
// to the same view and resets to the same bytes as the bare layout
// inside it: Writes, Freeze and Reset reach a layout through the
// interface, so no caller needs a fallback for one they cannot see.
func TestEmbeddedAccumulatorActsAsItsLayout(t *testing.T) {
	const L = TileSize + 300
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			stream := randomStream(rand.New(rand.NewSource(int64(mode)+5)), 400, L, L/2)
			bare, wrapped := feed(t, mode, L, stream), embedded{feed(t, mode, L, stream)}
			check := func(when string) {
				if got, want := Writes(wrapped, nil), Writes(bare, nil); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: embedded writes %v, bare %v", when, got, want)
				}
				if !bytes.Equal(stateOf(t, wrapped), stateOf(t, bare)) {
					t.Fatalf("%s: embedded state differs from the bare layout's", when)
				}
				fw, fb := view(t, wrapped), view(t, bare)
				if fw.Len() != fb.Len() || fw.Mode() != fb.Mode() {
					t.Fatalf("%s: embedded view %v/%d, bare %v/%d", when, fw.Mode(), fw.Len(), fb.Mode(), fb.Len())
				}
				_, okw := fw.PlaneWindow(0, L)
				_, okb := fb.PlaneWindow(0, L)
				if okw != okb {
					t.Fatalf("%s: embedded plane window %v, bare %v", when, okw, okb)
				}
				for pos := 0; pos < L; pos++ {
					if fw.Vector(pos) != fb.Vector(pos) || fw.Total(pos) != fb.Total(pos) {
						t.Fatalf("%s: position %d reads %v/%v embedded, %v/%v bare",
							when, pos, fw.Vector(pos), fw.Total(pos), fb.Vector(pos), fb.Total(pos))
					}
				}
			}
			if w := Writes(bare, nil); w[0] == 0 || w[1] == 0 {
				t.Fatalf("vacuous: the stream left a tile unwritten (%v)", w)
			}
			check("after feed")
			Reset(wrapped)
			Reset(bare)
			check("after Reset")
			fresh, err := New(mode, L)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stateOf(t, wrapped), stateOf(t, fresh)) {
				t.Fatal("Reset through the embedding left mass behind")
			}
		})
	}
}

// One counter per tile, the last tile possibly short, and a big-enough
// dst is reused rather than reallocated.
func TestRegionTrackerBounds(t *testing.T) {
	for _, c := range [][2]int{{1, 1}, {TileSize - 1, 1}, {TileSize, 1}, {TileSize + 1, 2}, {5 * TileSize, 5}} {
		acc, err := New(Norm, c[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := len(Writes(acc, nil)); got != c[1] {
			t.Errorf("length %d: %d tiles, want %d", c[0], got, c[1])
		}
	}
	acc, err := New(Norm, 3*TileSize)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 0, 3)
	if got := Writes(acc, dst); &got[0] != &dst[:1][0] {
		t.Error("Writes reallocated despite sufficient dst capacity")
	}
}

// AddRange counts one write on every tile its clamped range spans, and
// none for a range wholly off the genome.
func TestRegionTrackerTouch(t *testing.T) {
	const length = 3*TileSize + 100 // four tiles, the last short
	zs := func(n int) []Vec {
		v := make([]Vec, n)
		for i := range v {
			v[i] = Vec{0.5, 0.5, 0, 0, 0}
		}
		return v
	}
	for _, mode := range allModes() {
		acc, err := New(mode, length)
		if err != nil {
			t.Fatal(err)
		}
		acc.AddRange(5, zs(10), 1)          // tile 0 only
		acc.AddRange(TileSize-5, zs(10), 1) // spans tiles 0 and 1
		acc.AddRange(length-5, zs(50), 1)   // clamped to the last tile
		acc.AddRange(-5, zs(3), 1)          // entirely before the genome: no-op
		acc.AddRange(length+200, zs(10), 1) // entirely past the genome: no-op
		acc.AddRange(-5, zs(8), 0)          // clamped to [0, 3); zero weight still counts
		got, want := Writes(acc, nil), []uint64{3, 1, 0, 1}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%v: writes %v, want %v", mode, got, want)
		}
	}
}

// AddRange runs concurrently on every mapping worker; no count may be
// lost (the test runs under -race in the CI gate as well).
func TestRegionTrackerConcurrentTouch(t *testing.T) {
	const length, workers, perWorker, span = 10_000, 8, 1000, 50
	acc, err := New(Norm, length)
	if err != nil {
		t.Fatal(err)
	}
	start := func(w, i int) int { return (w*977 + i*131) % (length - 100) }
	zs := make([]Vec, span)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				acc.AddRange(start(w, i), zs, 1)
			}
		}(w)
	}
	wg.Wait()
	want := make([]uint64, 3)
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			s := start(w, i)
			for tile := s / TileSize; tile <= (s+span-1)/TileSize; tile++ {
				want[tile]++
			}
		}
	}
	if got := Writes(acc, nil); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("writes %v, want %v", got, want)
	}
}

// tileStates cuts a State blob into per-tile byte strings: each tile's
// share of the float array followed by its share of the byte array.
func tileStates(t *testing.T, acc Accumulator) [][]byte {
	t.Helper()
	blob := stateOf(t, acc)
	n := acc.Len()
	floats := blob[stateHdrLen+8:]
	nf := int(binary.LittleEndian.Uint64(blob[stateHdrLen:]))
	raw := floats[4*nf+8:]
	fpp, bpp := 4*nf/n, len(raw)/n // bytes per position in each array
	var out [][]byte
	for from := 0; from < n; from += TileSize {
		to := min(from+TileSize, n)
		out = append(out, append(bytes.Clone(floats[from*fpp:to*fpp]), raw[from*bpp:to*bpp]...))
	}
	return out
}

// Property (every layout): after any AddRange — off either edge, zero
// weight included — Merge, LoadStateBytes or Reset, every tile whose
// State bytes changed shows a moved write counter. Dropping any one of
// the markings fails it: each kind of step below changes some tile's
// bytes.
func TestWriteSetCoversEveryChange(t *testing.T) {
	const length = 3*TileSize + 123
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(mode) + 31))
			randomAdd := func(acc Accumulator) {
				n := 1 + rng.Intn(TileSize/8)
				zs := make([]Vec, n)
				for i := range zs {
					for k := range zs[i] {
						zs[i][k] = rng.Float64()
					}
				}
				w := 0.1 + rng.Float64()
				if rng.Intn(8) == 0 {
					w = 0
				}
				acc.AddRange(rng.Intn(length+2*n)-n, zs, w)
			}
			// sparse is an accumulator with mass in a few random places.
			sparse := func() Accumulator {
				o, err := New(mode, length)
				if err != nil {
					t.Fatal(err)
				}
				for i := rng.Intn(4); i > 0; i-- {
					randomAdd(o)
				}
				return o
			}
			acc, err := New(mode, length)
			if err != nil {
				t.Fatal(err)
			}
			steps := []struct {
				name string
				do   func()
			}{
				{"AddRange", func() { randomAdd(acc) }},
				{"Merge", func() {
					if err := acc.Merge(sparse()); err != nil {
						t.Fatal(err)
					}
				}},
				{"LoadStateBytes", func() {
					o := sparse()
					if rng.Intn(2) == 0 {
						o = acc // reload its own bytes
					}
					if err := acc.LoadStateBytes(stateOf(t, o)); err != nil {
						t.Fatal(err)
					}
				}},
				{"Reset", func() {
					Reset(acc)
				}},
			}
			changed := make(map[string]int)
			for i := 0; i < 400; i++ {
				step := steps[0]
				if r := rng.Intn(16); r < 3 {
					step = steps[1+r]
				}
				before, wBefore := tileStates(t, acc), Writes(acc, nil)
				step.do()
				after, wAfter := tileStates(t, acc), Writes(acc, nil)
				for tile := range after {
					if bytes.Equal(before[tile], after[tile]) {
						continue
					}
					changed[step.name]++
					if wAfter[tile] == wBefore[tile] {
						t.Fatalf("step %d (%s) changed tile %d's bytes but not its write counter", i, step.name, tile)
					}
				}
			}
			for _, s := range steps {
				if changed[s.name] == 0 {
					t.Errorf("vacuous: no %s step changed any tile", s.name)
				}
			}
		})
	}
}

// Merging an accumulator that holds no mass moves no counter in the
// layouts that add only where the other side holds mass (NORM and
// CENTDISC) — what lets an incremental sweep reuse tiles a read-split
// round's payloads did not reach. CHARDISC re-quantizes every position
// on Merge, so it marks every tile.
func TestMergeMarksOnlyTilesWithMass(t *testing.T) {
	const length = 4 * TileSize
	for _, mode := range allModes() {
		acc, err := New(mode, length)
		if err != nil {
			t.Fatal(err)
		}
		other, err := New(mode, length)
		if err != nil {
			t.Fatal(err)
		}
		other.AddRange(2*TileSize+7, []Vec{{1, 0, 0, 0, 0}}, 1)
		before := Writes(acc, nil)
		if err := acc.Merge(other); err != nil {
			t.Fatal(err)
		}
		after := Writes(acc, nil)
		for tile := range after {
			moved := after[tile] != before[tile]
			want := tile == 2 || mode == CharDisc
			if moved != want {
				t.Errorf("%v: merge moved tile %d's counter: %v, want %v", mode, tile, moved, want)
			}
		}
	}
}

// Property (every layout): after any sequence of AddRange — off either
// edge, zero weight included — Merge, LoadStateBytes and Reset, every
// tile whose write counter is still zero is all zeros in the state
// blob, as New left it. The calling sweep and the coverage summary skip
// such tiles without reading them.
func TestZeroWriteCounterMeansZeroTile(t *testing.T) {
	const length = 5*TileSize + 77
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(mode) + 53))
			// randomAdd writes into one of the first tiles, so most
			// sequences leave some tiles unwritten.
			randomAdd := func(acc Accumulator) {
				n := 1 + rng.Intn(40)
				zs := make([]Vec, n)
				for i := range zs {
					for k := range zs[i] {
						if rng.Intn(3) > 0 {
							zs[i][k] = rng.Float64()
						}
					}
				}
				w := 0.1 + rng.Float64()
				if rng.Intn(8) == 0 {
					w = 0
				}
				acc.AddRange(rng.Intn(4*TileSize+2*n)-n, zs, w)
			}
			fresh := func() Accumulator {
				o, err := New(mode, length)
				if err != nil {
					t.Fatal(err)
				}
				return o
			}
			sparse := func() Accumulator {
				o := fresh()
				for i := rng.Intn(3); i > 0; i-- {
					randomAdd(o)
				}
				return o
			}
			checked := 0
			for seq := 0; seq < 100; seq++ {
				acc := fresh()
				for step := 1 + rng.Intn(12); step > 0; step-- {
					switch r := rng.Intn(20); {
					case r < 14:
						randomAdd(acc)
					case r < 17:
						if err := acc.Merge(sparse()); err != nil {
							t.Fatal(err)
						}
					case r < 19:
						if err := acc.LoadStateBytes(stateOf(t, sparse())); err != nil {
							t.Fatal(err)
						}
					default:
						Reset(acc)
					}
					tiles, w := tileStates(t, acc), Writes(acc, nil)
					for i, tile := range tiles {
						if w[i] != 0 {
							continue
						}
						checked++
						if slices.ContainsFunc(tile, func(b byte) bool { return b != 0 }) {
							t.Fatalf("sequence %d: tile %d has a zero write counter but nonzero bytes", seq, i)
						}
					}
				}
			}
			if checked == 0 {
				t.Fatal("vacuous: no step left a tile unwritten")
			}
		})
	}
}
