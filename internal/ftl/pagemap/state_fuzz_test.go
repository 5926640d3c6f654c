package pagemap

import (
	"runtime"
	"testing"

	"dloop/internal/ckpt"
)

// encodedState runs a GC-heavy write stream through the named preset and
// returns its encoded state: live mappings, partial write points, collected
// blocks and, on the demand-paged presets, persisted translation pages.
func encodedState(t testing.TB, name string) []byte {
	t.Helper()
	f, _ := newTestFTL(t, Config{Layout: layout(t, name), CMTEntries: 8})
	hotColdWorkload(t, f, 3000, 500)
	if f.Stats().GCRuns == 0 {
		t.Fatalf("%s: workload never collected", name)
	}
	var w ckpt.Writer
	if err := EncodeState(&w, f.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// TestDecodeStateRoundTrip: every preset's state decodes and re-encodes to
// the same bytes, restores into a fresh instance of its own preset, and is
// refused by the others.
func TestDecodeStateRoundTrip(t *testing.T) {
	for _, name := range presetNames {
		data := encodedState(t, name)
		r := ckpt.NewReader(data)
		s := DecodeState(r, layout(t, name))
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var w ckpt.Writer
		if err := EncodeState(&w, s); err != nil {
			t.Fatal(err)
		}
		if string(w.Bytes()) != string(data) {
			t.Fatalf("%s: re-encoding changed the bytes", name)
		}
		for _, other := range presetNames {
			f, _ := newPreset(t, other)
			if err := f.Restore(s); (err == nil) != (other == name) {
				t.Fatalf("%s state restored into %s: err = %v", name, other, err)
			}
		}
	}
}

// decodeAllocs decodes data under layout l and reports the bytes the decode
// allocated and its error. The heap counters are process-wide and a fuzzing
// worker's own goroutines allocate too, so a reading over the bound is taken
// again, and the smallest of three stands.
func decodeAllocs(data []byte, l Layout) (alloc uint64, err error) {
	for try := 0; try < 3 && (try == 0 || alloc > allocBound(len(data))); try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := ckpt.NewReader(data)
		DecodeState(r, l)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; try == 0 || n < alloc {
			alloc = n
		}
		err = r.Err()
	}
	return alloc, err
}

// allocBound is what decoding n bytes may allocate; a slice sized by a count
// the bytes do not back would be far past it.
func allocBound(n int) uint64 { return 4*uint64(n) + 4096 }

// FuzzDecodeState feeds arbitrary bytes to DecodeState under each preset's
// layout. It must never panic, and it may allocate only in proportion to
// the bytes given: no count the payload does not back may size anything.
func FuzzDecodeState(f *testing.F) {
	for _, name := range presetNames {
		f.Add(encodedState(f, name))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range presetNames {
			if alloc, _ := decodeAllocs(data, layout(t, name)); alloc > allocBound(len(data)) {
				t.Fatalf("%s: allocated %d bytes decoding %d", name, alloc, len(data))
			}
		}
	})
}
