package sim

import (
	"runtime"
	"sync/atomic"
)

// SPSC is the single-producer single-consumer mailbox between the host
// goroutine and one shard worker: the multi-queue front end's submission
// ring in internal/ssd. The producer publishes fixed-size page commands in
// dispatch order; the consumer drains them FIFO, which is what keeps each
// shard's FTL seeing exactly the dispatch-order subsequence a serial run
// would feed it.
//
// The ring is lock-free in the common case: the producer writes the element
// and releases it by advancing tail; the consumer acquires tail, copies the
// element out, and advances head. done counts fully *processed* (not merely
// popped) elements, so the host's epoch barrier can wait for
// quiescence without knowing anything about the work itself.
//
// An idle consumer parks on a channel instead of spinning: sweeps run many
// simulator cells at once (and CI runs on few cores), so a shard with no
// work must cost nothing.
type SPSC[T any] struct {
	buf  []T
	mask uint64

	// stage is the producer-local write cursor for the batched-doorbell API:
	// PushStaged writes elements at stage without publishing them, Ring
	// publishes everything staged with one tail store (the doorbell). It is
	// touched only by the producer, so it needs no atomicity; tail is what
	// the consumer synchronizes on.
	stage uint64

	_    [48]byte // keep producer and consumer indices on separate cache lines
	tail atomic.Uint64
	_    [56]byte
	head atomic.Uint64
	_    [56]byte
	done atomic.Uint64

	sleeping atomic.Bool
	closed   atomic.Bool
	wake     chan struct{}
}

// NewSPSC returns a ring holding up to capacity elements (rounded up to a
// power of two, minimum 2).
func NewSPSC[T any](capacity int) *SPSC[T] {
	n := uint64(2)
	for n < uint64(capacity) {
		n <<= 1
	}
	return &SPSC[T]{
		buf:  make([]T, n),
		mask: n - 1,
		wake: make(chan struct{}, 1),
	}
}

// Push appends v and publishes it immediately: PushStaged plus Ring.
// Producer only. If the ring is full it yields until the consumer frees a
// slot; backpressure, not growth, bounds memory.
func (q *SPSC[T]) Push(v T) {
	q.PushStaged(v)
	q.Ring()
}

// PushStaged appends v without publishing it: the element is written into
// the ring but stays invisible to the consumer until the next Ring (or any
// call that implies one). Batching several stores per doorbell is what keeps
// a multi-queue producer from bouncing the tail cache line on every page.
// Producer only.
func (q *SPSC[T]) PushStaged(v T) {
	if q.stage-q.head.Load() > q.mask {
		// The ring is full counting staged elements. Publish what we have so
		// the consumer can drain, then wait for a slot.
		q.Ring()
		for q.stage-q.head.Load() > q.mask {
			runtime.Gosched()
		}
	}
	q.buf[q.stage&q.mask] = v
	q.stage++
}

// Ring publishes every staged element with a single tail store and wakes a
// parked consumer: the doorbell. A no-op when nothing is staged. Producer
// only.
func (q *SPSC[T]) Ring() {
	if q.stage == q.tail.Load() {
		return
	}
	q.tail.Store(q.stage)
	if q.sleeping.Load() {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
}

// Close publishes anything staged, marks the stream complete, and wakes the
// consumer. Producer only.
func (q *SPSC[T]) Close() {
	q.Ring()
	q.closed.Store(true)
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// PopWait removes the next element, parking when the ring stays empty. It
// returns ok=false only after Close once every element has been drained.
// Consumer only.
func (q *SPSC[T]) PopWait() (v T, ok bool) {
	for spins := 0; ; spins++ {
		h := q.head.Load()
		if q.tail.Load() != h {
			v = q.buf[h&q.mask]
			q.head.Store(h + 1)
			return v, true
		}
		if q.closed.Load() {
			if q.tail.Load() == h {
				return v, false
			}
			continue
		}
		if spins < 64 {
			runtime.Gosched()
			continue
		}
		// Park. The producer stores tail before loading sleeping, and we
		// store sleeping before re-loading tail, so a push racing this
		// window either becomes visible to the recheck or sees sleeping
		// and signals wake.
		q.sleeping.Store(true)
		if q.tail.Load() != q.head.Load() || q.closed.Load() {
			q.sleeping.Store(false)
			continue
		}
		<-q.wake
		q.sleeping.Store(false)
		spins = 0
	}
}

// MarkDone records that one popped element has been fully processed.
// Consumer only.
func (q *SPSC[T]) MarkDone() { q.done.Add(1) }

// Quiesced reports whether every pushed element has been fully processed.
func (q *SPSC[T]) Quiesced() bool { return q.done.Load() == q.tail.Load() }

// AwaitQuiesced blocks until the consumer has fully processed every element
// pushed so far: the epoch barrier. It rings the doorbell first, so elements
// still staged by PushStaged cannot be waited on invisibly. Producer only.
func (q *SPSC[T]) AwaitQuiesced() {
	q.Ring()
	for !q.Quiesced() {
		runtime.Gosched()
	}
}
