package sim

import "dloop/internal/ckpt"

// EncodeResourceState appends a ResourceState to w. Layout: solidUntil,
// busyFor, ops, then the live intervals as a length-prefixed slab of
// (start, end) int64 pairs.
func EncodeResourceState(w *ckpt.Writer, s ResourceState) {
	w.I64(int64(s.solidUntil))
	w.I64(int64(s.busyFor))
	w.I64(s.ops)
	w.U32(uint32(len(s.live)))
	for _, iv := range s.live {
		w.I64(int64(iv.start))
		w.I64(int64(iv.end))
	}
}

// DecodeResourceState reads a ResourceState written by EncodeResourceState.
// Checkpoints cross process boundaries, so it admits only what a Resource
// can hold — at most retainIntervals intervals, all present in the payload,
// each non-empty, in order, disjoint, and none before solidUntil — and fails
// the reader on anything else.
func DecodeResourceState(r *ckpt.Reader) ResourceState {
	s := ResourceState{
		solidUntil: Time(r.I64()),
		busyFor:    Duration(r.I64()),
		ops:        r.I64(),
	}
	n := r.SliceLen(16)
	if n > retainIntervals {
		r.Failf("sim: resource timeline holds %d intervals, the window is %d", n, retainIntervals)
	}
	if r.Err() != nil {
		return ResourceState{}
	}
	if n > 0 {
		s.live = make([]interval, n)
	}
	floor := s.solidUntil
	for i := range s.live {
		iv := interval{Time(r.I64()), Time(r.I64())}
		if iv.start < floor || iv.end <= iv.start {
			r.Failf("sim: resource timeline interval %d [%d,%d) is empty or starts before %d", i, iv.start, iv.end, floor)
			return ResourceState{}
		}
		s.live[i], floor = iv, iv.end
	}
	return s
}
