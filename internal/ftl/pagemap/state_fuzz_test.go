package pagemap

import (
	"runtime"
	"testing"

	"dloop/internal/ckpt"
)

// newCodecFTL builds the preset the codec tests encode from and decode into.
func newCodecFTL(t testing.TB, name string) *FTL {
	t.Helper()
	f, _ := newTestFTL(t, Config{Layout: layout(t, name), CMTEntries: 8})
	return f
}

// stateBytes encodes an FTL's state.
func stateBytes(f *FTL) []byte {
	var w ckpt.Writer
	f.EncodeState(&w)
	return w.Bytes()
}

// encodedState runs a GC-heavy write stream through the named preset and
// returns its encoded state: live mappings, partial write points, collected
// blocks and, on the demand-paged presets, persisted translation pages.
func encodedState(t testing.TB, name string) []byte {
	t.Helper()
	f := newCodecFTL(t, name)
	hotColdWorkload(t, f, 3000, 500)
	if f.Stats().GCRuns == 0 {
		t.Fatalf("%s: workload never collected", name)
	}
	return stateBytes(f)
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
			r := ckpt.NewReader(data)
			f.DecodeState(r)
			if other == name {
				if r.Err() != nil {
					t.Fatalf("%s: %v", name, r.Err())
				}
				if string(stateBytes(f)) != string(data) {
					t.Fatalf("%s: re-encoding changed the bytes", name)
				}
				continue
			}
			if r.Err() == nil {
				t.Fatalf("%s state decoded into %s: err = %v", name, other, r.Err())
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
		r := ckpt.NewReader(data)
		f.DecodeState(r)
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

// FuzzDecodeState decodes arbitrary bytes into a built FTL of each preset.
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
