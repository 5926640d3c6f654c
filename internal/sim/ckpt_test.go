package sim

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"dloop/internal/ckpt"
)

// encodeTimeline writes a timeline in Resource.EncodeState's layout.
func encodeTimeline(solidUntil Time, busyFor Duration, live []interval) []byte {
	var w ckpt.Writer // the zero value: a bare payload, no container header
	w.I64(int64(solidUntil))
	w.I64(int64(busyFor))
	w.U32(uint32(len(live)))
	for _, iv := range live {
		w.I64(int64(iv.start))
		w.I64(int64(iv.end))
	}
	return w.Bytes()
}

// timeline encodes a resource's timeline and statistics: resources compare
// by their bytes, which hold every field of the state.
func timeline(r *Resource) []byte {
	var w ckpt.Writer
	r.EncodeState(&w)
	return w.Bytes()
}

// reload decodes an encoded timeline into r.
func reload(t testing.TB, r *Resource, b []byte) {
	t.Helper()
	rd := ckpt.NewReader(b)
	if r.DecodeState(rd); rd.Err() != nil {
		t.Fatal(rd.Err())
	}
}

// rawResourceState encodes a timeline and then overwrites its interval count,
// so a test can claim a count the intervals do not back up.
func rawResourceState(solidUntil Time, count uint32, ivs ...interval) []byte {
	b := encodeTimeline(solidUntil, 0, ivs)
	binary.LittleEndian.PutUint32(b[16:], count) // after solidUntil and busyFor
	return b
}

func TestResourceStateRoundTrip(t *testing.T) {
	r := NewResource("plane")
	for i := 0; i < 100; i++ { // past the window, so solidUntil has moved
		r.Acquire(Time(i*10), 3)
	}
	r.Acquire(985, 2) // a backfilled interval among the appended ones
	want := timeline(r)
	got := NewResource("plane")
	got.Acquire(5000, 7) // a busy resource is overwritten, not added to
	reload(t, got, want)
	if !bytes.Equal(timeline(got), want) || got.FreeAt() != r.FreeAt() {
		t.Fatalf("round trip: %x (free at %d), want %x (free at %d)", timeline(got), got.FreeAt(), want, r.FreeAt())
	}
}

// TestDecodeResourceStateRejects feeds Resource.DecodeState timelines no
// Resource could have produced. Each must fail the reader — the cursor
// arithmetic after a decode assumes sorted, disjoint, non-empty intervals at
// or after solidUntil, at most a window of them — and the interval slice
// must never be sized by a count the payload does not back.
func TestDecodeResourceStateRejects(t *testing.T) {
	window := make([]interval, retainIntervals+1)
	for i := range window {
		window[i] = interval{Time(10 * i), Time(10*i + 5)}
	}
	for _, tc := range []struct {
		name, want string
		payload    []byte
	}{
		{"count beyond payload", "overruns", rawResourceState(0, 1<<24, interval{0, 5})},
		{"count is all ones", "overruns", rawResourceState(0, 0xFFFFFFFF)},
		{"one interval short", "overruns", rawResourceState(0, 3, interval{0, 5}, interval{10, 15})},
		{"over the window", "window", rawResourceState(0, uint32(len(window)), window...)},
		{"unsorted", "starts before", rawResourceState(0, 2, interval{20, 30}, interval{0, 10})},
		{"overlapping", "starts before", rawResourceState(0, 2, interval{0, 10}, interval{9, 20})},
		{"before solidUntil", "starts before", rawResourceState(50, 1, interval{40, 60})},
		{"empty", "empty", rawResourceState(0, 2, interval{0, 10}, interval{20, 20})},
		{"inverted", "empty", rawResourceState(0, 1, interval{10, 5})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The reader, the error and its message, at most one window of
			// intervals: a slice sized by the claimed count would dwarf it.
			// The heap counters are process-wide, so a reading over the
			// bound is taken again, and the smallest of three stands.
			var alloc uint64
			var err error
			for try := 0; try < 3 && (try == 0 || alloc > 4096); try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				rd := ckpt.NewReader(tc.payload)
				NewResource("plane").DecodeState(rd)
				runtime.ReadMemStats(&after)
				if n := after.TotalAlloc - before.TotalAlloc; try == 0 || n < alloc {
					alloc = n
				}
				err = rd.Err()
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one mentioning %q", err, tc.want)
			}
			if alloc > 4096 {
				t.Fatalf("allocated %d bytes decoding a rejected %d-byte payload", alloc, len(tc.payload))
			}
		})
	}
}
