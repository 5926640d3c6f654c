package sim

// Resource is a hardware unit that serves one operation at a time: a plane's
// cell array, a chip's serial I/O bus, or a channel. It tracks the occupied
// intervals of its recent timeline and places each new operation into the
// earliest gap that fits — the out-of-order dispatch the paper's simulator
// implements with its priority list ("if the targeting channel and plane of
// the request are available, it will be immediately handed to the hardware
// module"). Without backfill, one operation scheduled far in the future
// would burn the idle gap before it and artificially delay every later
// operation.
//
// The occupied intervals live in a sliding window over a reused backing
// array: the live window is buf[head:], appends reuse the array's tail, and
// dropping the oldest interval just advances head. When head grows past the
// retention window the live intervals are copied back to the front, so the
// structure reaches a fixed high-water capacity and then never allocates
// again — the request-serving hot path acquires resources millions of times
// per simulated second and must not churn the heap.
//
// A Resource has a single owner goroutine: even the read-only EarliestStart
// moves its search cursor. That holds for the single-FTL device and for
// each multi-queue FTL shard.
type Resource struct {
	// free caches FreeAt: the end of the last live interval, or solidUntil
	// when the window is empty. A request ready at or after it needs no
	// search, which is most of them.
	free Time
	// solidUntil is the time before which the resource is treated as fully
	// occupied; busy intervals older than the retention window are folded
	// into it. buf[head:] holds disjoint occupied intervals at or after
	// solidUntil, sorted by start.
	solidUntil Time
	buf        []interval
	head       int
	// cur is where the last search ended: the index of the interval after
	// the gap it found, which is where occupy backfills the occupation.
	// Requests chain (a merge, a collection, the rounds of one
	// EarliestStart), so the next search starts there. It is a hint, never
	// state: any value yields the same timeline, it is not checkpointed,
	// and Reset and DecodeState clear it.
	cur     int
	busyFor Duration
}

type interval struct {
	start, end Time
}

// retainIntervals bounds the per-resource scheduling window, by count.
// Operations are near-monotone in time, so a short window loses almost no
// gaps while bounding what a search far from the cursor can cost.
const retainIntervals = 64

// NewResource returns an idle resource. The name labels it at the call site
// only: nothing reads it back, so the resource does not keep it.
func NewResource(name string) *Resource {
	return &Resource{}
}

// FreeAt returns the time the resource's last scheduled occupation ends —
// the earliest start for an operation that must follow everything scheduled
// so far.
func (r *Resource) FreeAt() Time { return r.free }

// BusyTime returns the total simulated time r has spent occupied.
func (r *Resource) BusyTime() Duration { return r.busyFor }

// Reset returns the resource to idle at time zero and clears statistics.
// The SSD controller uses it to discard preconditioning activity. The
// backing array is kept, so a reset resource stays allocation-free.
func (r *Resource) Reset() {
	*r = Resource{buf: r.buf[:0]}
}

// fit returns the earliest start >= ready at which a duration d fits into
// r's gaps. Operations are near-monotone in time, so most requests land at
// or after the end of the timeline and are answered by this one compare,
// inlined into the caller.
func (r *Resource) fit(ready Time, d Duration) Time {
	if ready >= r.free {
		return ready
	}
	return r.backfit(ready, d)
}

// backfit is fit for a request ready before the end of the timeline. It
// leaves the cursor on the interval after the gap it returns.
func (r *Resource) backfit(ready Time, d Duration) Time {
	start := ready
	if start < r.solidUntil {
		start = r.solidUntil
	}
	n := len(r.buf)
	if n == r.head || start >= r.buf[n-1].start {
		// Empty window, or inside the tail interval: the timeline is
		// continuously busy up to free and open afterwards.
		return r.free
	}
	// Earlier intervals can neither contain start nor open a gap at or after
	// it. Ends are strictly increasing and buf[i].end > start, so after each
	// miss the candidate start is the current interval's end.
	i := r.seek(start)
	for ; i < n && start.Add(d) > r.buf[i].start; i++ {
		start = r.buf[i].end
	}
	r.cur = i
	return start
}

// seek returns the index of the first live interval whose end lies after t
// (intervals are disjoint and sorted, so ends are sorted too). The caller
// guarantees one exists. It gallops outward from the cursor and bisects the
// bracket that leaves, so a search that lands near the previous one — the
// next round of an EarliestStart, the next operation of a chain — costs two
// compares, and one that lands anywhere costs no more than twice a bisection
// of the whole window.
func (r *Resource) seek(t Time) int {
	b := r.buf
	lo, hi := r.head, len(b)-1
	c := r.cur
	if c < lo {
		c = lo
	} else if c > hi {
		c = hi
	}
	if b[c].end > t {
		hi = c
		for step := 1; c-step >= lo; step <<= 1 {
			if b[c-step].end <= t {
				lo = c - step + 1
				break
			}
			hi = c - step
		}
	} else {
		lo = c + 1
		for step := 1; c+step < hi; step <<= 1 {
			if b[c+step].end > t {
				hi = c + step
				break
			}
			lo = c + step + 1
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].end > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// occupy records the occupation [start, start+d) that fit just placed,
// keeping the window sorted, disjoint, and coalesced. Appending at the tail
// (the near-monotone common case) touches only the last element.
func (r *Resource) occupy(start Time, d Duration) {
	r.busyFor += d
	r.place(start, d)
}

// OccupyTail records back-to-back operations that together occupy
// [start, start+d), where start is at or after FreeAt: what their Acquires
// would do when each is ready at its predecessor's end and the first at
// start — every fit answers its ready time, so the occupations butt and
// coalesce into one append or one extension of the last interval.
// Device.schedule uses it for an operation whose timelines are all free by
// its ready time. A start before FreeAt is outside its contract.
func (r *Resource) OccupyTail(start Time, d Duration) {
	r.busyFor += d
	r.place(start, d)
}

// place inserts the interval of occupy and OccupyTail.
func (r *Resource) place(start Time, d Duration) {
	end := start.Add(d)
	switch {
	case d <= 0:
	case start > r.free || len(r.buf) == r.head:
		r.buf = append(r.buf, interval{start, end})
		r.free = end
		r.trim()
	case start == r.free:
		r.buf[len(r.buf)-1].end = end
		r.free = end
	default:
		r.backfill(interval{start, end})
	}
}

// backfill handles an interval that lands strictly before the tail, in the
// gap the cursor was left on. Chained operation phases usually butt up
// against an existing interval, so the coalescing cases mutate a neighbor in
// place instead of shifting the window.
func (r *Resource) backfill(iv interval) {
	// iv goes before buf[pos], the first interval that starts after it.
	pos := r.cur
	if pos < r.head || pos >= len(r.buf) || r.buf[pos].start < iv.end ||
		(pos > r.head && r.buf[pos-1].end > iv.start) {
		pos = r.seek(iv.start) // the hint is stale; iv overlaps nothing, so this is the same slot
	}
	touchL := pos > r.head && r.buf[pos-1].end == iv.start
	touchR := iv.end == r.buf[pos].start
	switch {
	case touchL && touchR: // fills the gap exactly: merge three into one
		r.buf[pos-1].end = r.buf[pos].end
		r.buf = append(r.buf[:pos], r.buf[pos+1:]...)
	case touchL:
		r.buf[pos-1].end = iv.end
	case touchR:
		r.buf[pos].start = iv.start
	default:
		r.buf = append(r.buf, interval{})
		copy(r.buf[pos+1:], r.buf[pos:])
		r.buf[pos] = iv
		r.trim()
	}
}

// trim bounds the window after it grew: fold the oldest intervals (and the
// gaps before them) into solidUntil, and slide the live window back to the
// front of the backing array once the dead prefix would otherwise force
// append to grow it.
func (r *Resource) trim() {
	for len(r.buf)-r.head > retainIntervals {
		r.solidUntil = r.buf[r.head].end
		r.head++
	}
	if r.head >= retainIntervals {
		n := copy(r.buf, r.buf[r.head:])
		r.buf = r.buf[:n]
		r.cur -= r.head
		r.head = 0
	}
}

// Acquire occupies r for d in the earliest gap starting no earlier than
// ready, returning the interval [start, end) actually occupied.
func (r *Resource) Acquire(ready Time, d Duration) (start, end Time) {
	start = r.fit(ready, d)
	r.occupy(start, d)
	return start, start.Add(d)
}

// AcquireChain is k back-to-back Acquires of duration d, the first ready at
// ready and each later one ready when its predecessor ends (a collection's
// copy-backs on one plane). It returns the last end, ready when k is 0; the
// operations' latencies, each from its own ready time, telescope to
// end - ready. Once one ends at the tail of the timeline, every remaining one
// would start exactly at free and take occupy's extend-the-last-interval
// case, so they are folded into one step; until then (a chain that starts in
// a gap) each is probed on its own.
func (r *Resource) AcquireChain(ready Time, d Duration, k int) (end Time) {
	end = ready
	for ; k > 0; k-- {
		if end == r.free && d > 0 && len(r.buf) > r.head {
			span := Duration(k) * d
			end = end.Add(span)
			r.buf[len(r.buf)-1].end = end
			r.free = end
			r.busyFor += span
			break
		}
		_, end = r.Acquire(end, d)
	}
	return end
}

// EarliestStart reports when an operation that is ready at the given time
// and needs every resource in rs for duration d could begin, without
// reserving anything (it does move the resources' search cursors). Each fit
// is monotone in its argument, so the least common fit is a unique fixpoint:
// cycle until len(rs) consecutive resources confirm the current start. When
// the resources' busy patterns interlock — a merge chain leaves chip,
// channel and plane occupied in turn — every round advances one interval,
// which is why each round must cost O(1), not a search.
func EarliestStart(ready Time, d Duration, rs ...*Resource) Time {
	start := ready
	for i, ok := 0, 0; ok < len(rs); { // ok: consecutive resources known to fit at start
		if s := rs[i].fit(start, d); s > start {
			start, ok = s, 1 // rs[i] fits at its own answer; everyone else must re-confirm
		} else {
			ok++
		}
		if i++; i == len(rs) {
			i = 0
		}
	}
	return start
}

// AcquireAll occupies every resource in rs for d in the earliest common gap
// starting no earlier than ready. All resources occupy the same interval. It
// models an operation phase (such as a page transfer) that holds the channel
// and the chip serial bus simultaneously.
func AcquireAll(ready Time, d Duration, rs ...*Resource) (start, end Time) {
	start = EarliestStart(ready, d, rs...)
	for _, r := range rs {
		r.occupy(start, d)
	}
	return start, start.Add(d)
}
