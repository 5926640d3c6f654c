package translate

import (
	"errors"
	"runtime"
	"testing"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

// newCodecEngine builds the engine the codec tests encode from and decode
// into: a 64-page space behind a 4-entry CMT.
func newCodecEngine(tb testing.TB, policy Policy) (*Engine, *flash.Device) {
	tb.Helper()
	dev, err := flash.NewDevice(testGeo(), flash.DefaultTiming())
	if err != nil {
		tb.Fatal(err)
	}
	m, err := NewEngine(Config{
		Dev: dev, Placer: &splitPlacer{trans: 128}, Tracker: newTracker(tb, dev),
		Capacity: 64, CMTEntries: 4, Policy: policy, StrideHint: 1,
	}, new(obs.Counts))
	if err != nil {
		tb.Fatal(err)
	}
	return m, dev
}

// engineBytes encodes an engine's state.
func engineBytes(m *Engine) []byte {
	var w ckpt.Writer
	m.EncodeState(&w)
	return w.Bytes()
}

// encodedEngineState runs a small write stream through a fresh engine and
// returns its encoded state: a table and GTD with live entries, a CMT with
// dirty and clean entries, and — under the learned policy — trained segments.
func encodedEngineState(tb testing.TB, policy Policy) []byte {
	tb.Helper()
	m, dev := newCodecEngine(tb, policy)
	var (
		at  sim.Time
		err error
	)
	for lpn := ftl.LPN(0); lpn < 24; lpn++ {
		if at, err = m.Resolve(lpn, at); err != nil {
			tb.Fatal(err)
		}
		ppn, t, err := m.placer.PlacePage(int64(lpn), at)
		if err != nil {
			tb.Fatal(err)
		}
		if at, err = dev.WritePage(ppn, int64(lpn), t, flash.CauseHost); err != nil {
			tb.Fatal(err)
		}
		if _, err := m.RecordWrite(lpn, ppn); err != nil {
			tb.Fatal(err)
		}
	}
	if policy == PolicyLearned && m.LearnedSegments() == 0 {
		tb.Fatal("no learned segments trained")
	}
	return engineBytes(m)
}

// decodeAllocs decodes data into m and reports the bytes the decode
// allocated and its error. The heap counters are process-wide and a
// fuzzing worker's own goroutines allocate too, so a reading over the bound
// is taken again, and the smallest of three stands.
func decodeAllocs(m *Engine, data []byte) (alloc uint64, err error) {
	for try := 0; try < 3 && (try == 0 || alloc > allocBound(len(data))); try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := ckpt.NewReader(data)
		m.DecodeState(r)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; try == 0 || n < alloc {
			alloc = n
		}
		err = r.Err()
	}
	return alloc, err
}

// allocBound is what decoding len bytes may allocate. The in-memory forms
// run up to 2.3x their encoding (a learned index's per-page slice headers
// against the GTD and counts that back them); a slice sized by a count the
// bytes do not back would be far past it.
func allocBound(n int) uint64 { return 4*uint64(n) + 4096 }

// TestDecodeStateRoundTrip: every policy's state decodes into a fresh
// engine and re-encodes to the same bytes.
func TestDecodeStateRoundTrip(t *testing.T) {
	for _, policy := range []Policy{PolicySLRU, PolicyLearned} {
		data := encodedEngineState(t, policy)
		m, _ := newCodecEngine(t, policy)
		r := ckpt.NewReader(data)
		if m.DecodeState(r); r.Err() != nil {
			t.Fatalf("%v: %v", policy, r.Err())
		}
		if string(engineBytes(m)) != string(data) {
			t.Fatalf("%v: re-encoding changed the bytes", policy)
		}
	}
}

// TestDecodeStateCrafted damages the counts, the PPN columns and the cached
// LPNs of a valid encoding and decodes it into a built engine. Each must
// fail with an error, allocating only what the payload backs: unbounded, a
// slab or learned-index count of 2^32-1 sizes a slice of 96 GB or more, a
// PPN column truncates whatever int64 it is given, and a cached LPN outside
// the space or a dirty-list head outside the slab indexes past the cache's
// columns.
func TestDecodeStateCrafted(t *testing.T) {
	data := encodedEngineState(t, PolicyLearned)
	m, _ := newCodecEngine(t, PolicyLearned)
	const table = 4 + 8*64 // the 64-entry table; the CMT follows
	const slab = table + 8 // after the cached-entry count n
	// The first dirty-list head: after the slab, the free-list head, both
	// lists and the heads' count.
	tpHead := slab + 4 + 25*len(m.Cache.slab) + 4 + 2*16 + 4
	put := func(b []byte, off int, v uint64, width int) {
		for i := 0; i < width; i++ {
			b[off+i] = byte(v >> (8 * i))
		}
	}
	for _, tc := range []struct {
		name   string
		damage func(b []byte)
		want   error
	}{
		{"slab count beyond payload", func(b []byte) { put(b, slab, 0xFFFFFFFF, 4) }, nil},
		{"table count beyond payload", func(b []byte) { put(b, 0, 0xFFFFFFFF, 4) }, nil},
		{"table entry beyond any device", func(b []byte) { put(b, 4, 1<<32-1, 8) }, flash.ErrUnmappable},
		{"table entry negative", func(b []byte) { put(b, 4+8, ^uint64(1), 8) }, flash.ErrUnmappable},
		{"cached lpn beyond the space", func(b []byte) { put(b, slab+4+25, 64, 8) }, nil},
		{"cached lpn negative", func(b []byte) { put(b, slab+4+25, ^uint64(0), 8) }, nil},
		{"dirty-list head beyond the slab", func(b []byte) { put(b, tpHead, uint64(len(m.Cache.slab)), 4) }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), data...)
			tc.damage(bad)
			alloc, err := decodeAllocs(m, bad)
			if err == nil {
				t.Fatal("damaged state accepted")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
			if alloc > allocBound(len(bad)) {
				t.Fatalf("allocated %d bytes rejecting %d", alloc, len(bad))
			}
		})
	}

	// The lists the decoder re-tags the table from. Read the handles from
	// the valid state, decoded, and damage the bytes of one of them.
	if _, err := decodeAllocs(m, data); err != nil {
		t.Fatal(err)
	}
	c := m.Cache
	if c.n != c.capacity || c.probation.n < 2 {
		t.Fatalf("test setup: %d of %d entries cached, %d on probation", c.n, c.capacity, c.probation.n)
	}
	entry := func(h int32) int { return slab + 4 + 25*int(h) } // lpn, flags, prev, next, dPrev, dNext
	lists := entry(int32(len(c.slab))) + 4                     // after the free-list head
	head, second, tail := c.probation.head, c.slab[c.probation.head].next, c.probation.tail
	var dirty int32 // a dirty entry: its flags byte names it on a dirty list
	for h := int32(1); h < int32(len(c.slab)); h++ {
		if c.slab[h].dirty {
			dirty = h
		}
	}
	if dirty == 0 {
		t.Fatal("test setup: no dirty entry")
	}
	for _, tc := range []struct {
		name   string
		damage func(b []byte)
		want   error
	}{
		{"table word with the cache tag", func(b []byte) { put(b, 4, cachedTag-1, 8) }, flash.ErrUnmappable},
		{"two live entries with one lpn", func(b []byte) { put(b, entry(second), uint64(c.slab[head].lpn), 8) }, nil},
		{"recency list with a cycle", func(b []byte) { put(b, entry(tail)+13, uint64(head), 4) }, nil},
		{"recency list count beyond the slab", func(b []byte) { put(b, lists+8, uint64(len(c.slab)), 8) }, nil},
		{"live-entry count below the lists'", func(b []byte) { put(b, table, uint64(c.n-1), 8) }, nil},
		{"free list through a live entry", func(b []byte) { put(b, lists-4, uint64(head), 4) }, nil},
		{"dirty list through a clean entry", func(b []byte) { b[entry(dirty)+8] &^= entryDirty }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), data...)
			tc.damage(bad)
			if _, err := decodeAllocs(m, bad); err == nil {
				t.Fatal("damaged state accepted")
			} else if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
		})
	}

	// The learned index's counts: the outer one must match the GTD, each
	// page's must be backed by the payload.
	var w ckpt.Writer
	m.Cache.encodeTable(&w)
	m.Cache.encodeState(&w)
	w.I64(0) // CMT hits
	w.I64(0) // and misses
	m.GTD.EncodeState(&w)
	learned := w.Len()
	for _, tc := range []struct {
		name string
		off  int
		v    uint64
	}{
		{"learned page count beyond the GTD", learned, uint64(len(m.GTD)) + 1},
		{"learned page count beyond payload", learned, 0xFFFFFFFF},
		{"segment count beyond payload", learned + 4, 0xFFFFFFFF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), data...)
			put(bad, tc.off, tc.v, 4)
			alloc, err := decodeAllocs(m, bad)
			if err == nil {
				t.Fatal("damaged state accepted")
			}
			if alloc > allocBound(len(bad)) {
				t.Fatalf("allocated %d bytes rejecting %d", alloc, len(bad))
			}
		})
	}
}

// FuzzDecodeTranslateState decodes arbitrary bytes into a built engine of
// each policy. It must never panic, and it may allocate only in proportion
// to the bytes given: no count the payload does not back may size anything.
func FuzzDecodeTranslateState(f *testing.F) {
	policies := []Policy{PolicySLRU, PolicyLearned}
	var engines []*Engine
	for _, policy := range policies {
		f.Add(encodedEngineState(f, policy))
		m, _ := newCodecEngine(f, policy)
		engines = append(engines, m)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, m := range engines {
			if alloc, _ := decodeAllocs(m, data); alloc > allocBound(len(data)) {
				t.Fatalf("%v: allocated %d bytes decoding %d", policies[i], alloc, len(data))
			}
		}
	})
}
