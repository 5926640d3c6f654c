package pagemap

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/obs"
)

// newCodecFTL builds the preset the codec tests encode from and decode into.
func newCodecFTL(t testing.TB, name string) *FTL {
	t.Helper()
	f, _ := newTestFTL(t, Config{Layout: layout(t, name), CMTEntries: 8})
	return f
}

// stateBytes encodes an FTL's device and then the FTL, as a checkpoint
// does: the FTL's decoder reads the device's decoded pages.
func stateBytes(f *FTL) []byte {
	var w ckpt.Writer
	f.dev.EncodeState(&w)
	f.EncodeState(&w)
	return w.Bytes()
}

// decodeState decodes what stateBytes wrote into f's device and f.
func decodeState(f *FTL, data []byte) error {
	r := ckpt.NewReader(data)
	f.dev.DecodeState(r)
	f.DecodeState(r)
	return r.Err()
}

// collectedFTL runs a GC-heavy write stream through the named preset:
// live mappings, partial write points, collected blocks and, on the
// demand-paged presets, persisted translation pages.
func collectedFTL(t testing.TB, name string) *FTL {
	t.Helper()
	f := newCodecFTL(t, name)
	hotColdWorkload(t, f, 3000, 500)
	if f.Counts()[obs.EvGCRun] == 0 {
		t.Fatalf("%s: workload never collected", name)
	}
	return f
}

// encodedState returns collectedFTL's encoded state.
func encodedState(t testing.TB, name string) []byte {
	t.Helper()
	return stateBytes(collectedFTL(t, name))
}

// TestDecodeStateRoundTrip: every preset's state decodes into a fresh
// instance of its own preset and re-encodes to the same bytes, and the other
// presets refuse it (PureMap and PureMap-striped, which differ only in
// placement, by their write-point counts).
func TestDecodeStateRoundTrip(t *testing.T) {
	for _, name := range presetNames {
		data := encodedState(t, name)
		for _, other := range presetNames {
			f := newCodecFTL(t, other)
			err := decodeState(f, data)
			if other == name {
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if string(stateBytes(f)) != string(data) {
					t.Fatalf("%s: re-encoding changed the bytes", name)
				}
				continue
			}
			if err == nil {
				t.Fatalf("%s state decoded into %s", name, other)
			}
		}
	}
}

// decodeAllocs decodes data into f and reports the bytes the decode
// allocated and its error. The heap counters are process-wide and a fuzzing
// worker's own goroutines allocate too, so a reading over the bound is taken
// again, and the smallest of three stands.
func decodeAllocs(data []byte, f *FTL) (alloc uint64, err error) {
	for try := 0; try < 3 && (try == 0 || alloc > allocBound(len(data))); try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = decodeState(f, data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; try == 0 || n < alloc {
			alloc = n
		}
	}
	return alloc, err
}

// allocBound is what decoding n bytes may allocate; a slice sized by a count
// the bytes do not back would be far past it.
func allocBound(n int) uint64 { return 4*uint64(n) + 4096 }

// FuzzDecodeState decodes arbitrary bytes into a built FTL of each preset
// and its device.
// It must never panic, and it may allocate only in proportion to the bytes
// given: no count the payload does not back may size anything.
func FuzzDecodeState(f *testing.F) {
	var ftls []*FTL
	for _, name := range presetNames {
		f.Add(encodedState(f, name))
		ftls = append(ftls, newCodecFTL(f, name))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ft := range ftls {
			if alloc, _ := decodeAllocs(data, ft); alloc > allocBound(len(data)) {
				t.Fatalf("%s: allocated %d bytes decoding %d", ft.Name(), alloc, len(data))
			}
		}
	})
}

// TestDecodeStateCrafted damages the mapping table, the free pool, the
// tracker's candidate list and the write points of a sound DLOOP encoding
// and decodes it into a built DLOOP. The table must agree with the page
// tags, and a free block must be erased on the device and listed once. The
// candidates' counts are not in the bytes (each is its block's invalid count
// on the device), so what is left to check is that each listed block lies
// on its plane, is listed once and is full on the device, and that no
// active write point appends to a candidate.
func TestDecodeStateCrafted(t *testing.T) {
	f := collectedFTL(t, "DLOOP")
	data := stateBytes(f)
	var w ckpt.Writer
	f.dev.EncodeState(&w)
	table := w.Len() + 4 // the table's length, then one int64 PPN per LPN
	f.mapper.EncodeState(&w)
	pool := w.Len()
	f.pool.EncodeState(&w)
	tracker := w.Len()
	f.tracker.EncodeState(&w)
	wps := w.Len()
	// The first plane listing two candidates: after the plane count, each
	// plane's candidate count and its (int32 block, int64 close sequence)
	// pairs.
	plane, list := -1, tracker+4
	for p := 0; p < f.geo.Planes(); p++ {
		if n := int(binary.LittleEndian.Uint32(data[list:])); n >= 2 {
			plane = p
			break
		} else {
			list += 4 + 12*n
		}
	}
	if plane < 0 {
		t.Fatal("test setup: no plane lists two candidates")
	}
	cand := func(i int) int { return list + 4 + 12*i }
	first := int32(binary.LittleEndian.Uint32(data[cand(0):]))
	if !f.tracker.Candidate(flash.PlaneBlock{Plane: plane, Block: int(first)}) {
		t.Fatalf("test setup: plane %d block %d is no candidate", plane, first)
	}
	open := int32(-1) // a block of the plane that is not full on the device
	for b := 0; b < f.geo.BlocksPerPlane; b++ {
		if f.dev.Block(flash.PlaneBlock{Plane: plane, Block: b}).NextWrite < f.geo.PagesPerBlock {
			open = int32(b)
			break
		}
	}
	if open < 0 {
		t.Fatalf("test setup: every block of plane %d is full", plane)
	}
	// The workload never writes lpn 0 and writes lpns 1 and 2.
	if f.Lookup(0) != flash.InvalidPPN || f.Lookup(1) == flash.InvalidPPN || f.Lookup(2) == flash.InvalidPPN {
		t.Fatal("test setup: lpn 0 is mapped, or lpn 1 or 2 is not")
	}
	entry := func(lpn int) []byte { return data[table+8*lpn : table+8*lpn+8] }
	// The GTD ends the translation state, before an empty learned index (a
	// u32 count) and three int64 counters: its length, then an int64 PPN per
	// translation page.
	gtd := pool - 24 - 4 - 8*f.mapper.TranslationPages()
	tp := -1 // a persisted translation page
	for v := range f.mapper.TranslationPages() {
		if f.mapper.GTD.Get(int64(v)) != flash.InvalidPPN {
			tp = v
			break
		}
	}
	if tp < 0 || int64(binary.LittleEndian.Uint64(data[gtd+8*tp:])) != int64(f.mapper.GTD.Get(int64(tp))) {
		t.Fatalf("test setup: no persisted translation page, or the GTD is not at offset %d", gtd)
	}
	// The first plane with two free blocks: after the plane count, each
	// plane's block count and its int64 blocks.
	freePlane, freeList := -1, pool+4
	for p := 0; p < f.geo.Planes(); p++ {
		if n := int(binary.LittleEndian.Uint32(data[freeList:])); n >= 2 {
			freePlane = p
			break
		} else {
			freeList += 4 + 8*n
		}
	}
	if freePlane < 0 {
		t.Fatal("test setup: no plane has two free blocks")
	}
	free := func(i int) int { return freeList + 4 + 8*i }
	written := int64(-1) // a block of the plane that is not erased
	for b := 0; b < f.geo.BlocksPerPlane; b++ {
		if f.dev.Block(flash.PlaneBlock{Plane: freePlane, Block: b}).NextWrite > 0 {
			written = int64(b)
			break
		}
	}
	if written < 0 {
		t.Fatalf("test setup: every block of plane %d is erased", freePlane)
	}
	// Write point i: its plane and block (int64 each) and its active flag.
	wp := func(i int) int { return wps + 4 + 17*i }
	if !f.cur[0].active {
		t.Fatal("test setup: write point 0 is idle")
	}
	put32 := func(b []byte, off int, v int32) { binary.LittleEndian.PutUint32(b[off:], uint32(v)) }
	put64 := func(b []byte, off int, v int64) { binary.LittleEndian.PutUint64(b[off:], uint64(v)) }

	for _, tc := range []struct {
		name, want string
		damage     func(b []byte)
	}{
		{"lpn 0 mapped to lpn 1's page", "the table maps", func(b []byte) { copy(b[table:], entry(1)) }},
		{"lpn 1 mapped to lpn 2's page", "lpn 1 is valid at", func(b []byte) { copy(b[table+8:], entry(2)) }},
		{"translation page missing from the GTD", "which the GTD does not map it to", func(b []byte) { put64(b, gtd+8*tp, -1) }},
		{"free block listed twice", "listed twice", func(b []byte) { copy(b[free(1):free(1)+8], b[free(0):]) }},
		{"free block not erased", "not erased", func(b []byte) { put64(b, free(0), written) }},
		{"candidate off the device", "off the device", func(b []byte) { put32(b, cand(0), int32(f.geo.BlocksPerPlane)) }},
		{"candidate listed twice", "listed twice", func(b []byte) { put32(b, cand(1), first) }},
		{"candidate not full on the device", "not full", func(b []byte) { put32(b, cand(0), open) }},
		{"write point on a candidate", "is a collection candidate", func(b []byte) {
			put64(b, wp(0), int64(plane))
			put64(b, wp(0)+8, int64(first))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := bytes.Clone(data)
			tc.damage(bad)
			if err := decodeState(newCodecFTL(t, "DLOOP"), bad); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode error %v, want one saying %q", err, tc.want)
			}
		})
	}
	if err := decodeState(newCodecFTL(t, "DLOOP"), data); err != nil {
		t.Fatalf("the undamaged state: %v", err)
	}
	t.Run("lpn 1 mapped to lpn 2's page in an ideal table", func(t *testing.T) {
		g := collectedFTL(t, "PureMap")
		var w ckpt.Writer
		g.dev.EncodeState(&w)
		entry := w.Len() + 4 + 8 // lpn 1's PPN
		bad := stateBytes(g)
		copy(bad[entry:entry+8], bad[entry+8:])
		if err := decodeState(newCodecFTL(t, "PureMap"), bad); err == nil || !strings.Contains(err.Error(), "lpn 1 is valid at") {
			t.Fatalf("decode error %v, want one saying %q", err, "lpn 1 is valid at")
		}
	})
}
