package sim

import "dloop/internal/ckpt"

// EncodeState appends the resource's timeline and statistics to w. Layout:
// solidUntil, busyFor, then the live intervals as a length-prefixed slab of
// (start, end) int64 pairs.
func (r *Resource) EncodeState(w *ckpt.Writer) {
	w.I64(int64(r.solidUntil))
	w.I64(int64(r.busyFor))
	live := r.buf[r.head:]
	w.U32(uint32(len(live)))
	for _, iv := range live {
		w.I64(int64(iv.start))
		w.I64(int64(iv.end))
	}
}

// DecodeState overwrites the resource with a timeline EncodeState wrote,
// reusing the backing array, so repeated forks stay allocation-free once the
// high-water capacity is reached. Checkpoints cross process boundaries, so it
// admits only what a Resource can hold — at most retainIntervals intervals,
// all present in the payload, each non-empty, in order, disjoint, and none
// before solidUntil — and fails the reader on anything else, leaving the
// resource partly overwritten.
func (r *Resource) DecodeState(rd *ckpt.Reader) {
	solidUntil, busyFor := Time(rd.I64()), Duration(rd.I64())
	n := rd.SliceLen(16)
	if n > retainIntervals {
		rd.Failf("sim: resource timeline holds %d intervals, the window is %d", n, retainIntervals)
	}
	if rd.Err() != nil {
		return
	}
	*r = Resource{
		free: solidUntil, solidUntil: solidUntil,
		buf: r.buf[:0], busyFor: busyFor,
	}
	for i := 0; i < n; i++ {
		iv := interval{Time(rd.I64()), Time(rd.I64())}
		if iv.start < r.free || iv.end <= iv.start {
			rd.Failf("sim: resource timeline interval %d [%d,%d) is empty or starts before %d", i, iv.start, iv.end, r.free)
			return
		}
		r.buf = append(r.buf, iv)
		r.free = iv.end
	}
}
