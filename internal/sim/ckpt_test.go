package sim

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"dloop/internal/ckpt"
)

// rawResourceState encodes a timeline and then overwrites its interval count,
// so a test can claim a count the intervals do not back up.
func rawResourceState(solidUntil Time, count uint32, ivs ...interval) []byte {
	var w ckpt.Writer // the zero value: a bare payload, no container header
	EncodeResourceState(&w, ResourceState{solidUntil: solidUntil, live: ivs})
	binary.LittleEndian.PutUint32(w.Bytes()[24:], count) // after solidUntil, busyFor, ops
	return w.Bytes()
}

func TestResourceStateRoundTrip(t *testing.T) {
	r := NewResource("plane")
	for i := 0; i < 100; i++ { // past the window, so solidUntil has moved
		r.Acquire(Time(i*10), 3)
	}
	r.Acquire(985, 2) // a backfilled interval among the appended ones
	want := r.Snapshot()
	var w ckpt.Writer
	EncodeResourceState(&w, want)
	rd := ckpt.NewReader(w.Bytes())
	got := DecodeResourceState(rd)
	if rd.Err() != nil || !equalState(got, want) {
		t.Fatalf("round trip: %+v (err %v), want %+v", got, rd.Err(), want)
	}
}

// TestDecodeResourceStateRejects feeds DecodeResourceState timelines no
// Resource could have produced. Each must fail the reader — Restore and the
// cursor arithmetic after it assume sorted, disjoint, non-empty intervals at
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
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rd := ckpt.NewReader(tc.payload)
			s := DecodeResourceState(rd)
			err := rd.Err()
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one mentioning %q", err, tc.want)
			}
			if s.live != nil {
				t.Fatalf("a rejected timeline still returned %d intervals", len(s.live))
			}
			// The reader, the error and its message, at most one window of
			// intervals: a slice sized by the claimed count would dwarf it.
			if got := after.TotalAlloc - before.TotalAlloc; got > 4096 {
				t.Fatalf("allocated %d bytes decoding a rejected %d-byte payload", got, len(tc.payload))
			}
		})
	}
}
