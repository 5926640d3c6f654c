package ssd

import (
	"fmt"

	"dloop/internal/ftl"
	"dloop/internal/sim"
)

// writeBuffer models the DRAM buffer manager of Fig. 1a: dirty logical
// pages are absorbed at DRAM speed and flushed to the FTL in the
// background. Write hits coalesce (a page rewritten while still buffered
// costs nothing on flash); read hits are served from DRAM. The paper's
// evaluation compares bare FTLs, so the buffer is opt-in
// (Config.BufferPages) and disabled everywhere the experiments run.
type writeBuffer struct {
	capacity int
	dramLat  sim.Duration

	dirty map[ftl.LPN]int // lpn -> lru sequence
	seq   int
	order []ftl.LPN // FIFO of insertions; stale entries skipped on flush

	hitsW, hitsR, flushes int64
}

// DefaultDRAMLatency is the charge for a buffered page access: DRAM plus
// controller firmware time, vastly below any flash operation.
const DefaultDRAMLatency = 2 * sim.Microsecond

func newWriteBuffer(capacity int) *writeBuffer {
	return &writeBuffer{
		capacity: capacity,
		dramLat:  DefaultDRAMLatency,
		dirty:    make(map[ftl.LPN]int, capacity),
	}
}

// put absorbs a page write, flushing the oldest dirty page through the FTL
// first if the buffer is full. It returns the completion time of the host-
// visible part (the DRAM write, plus any synchronous eviction flush).
func (b *writeBuffer) put(f ftl.FTL, lpn ftl.LPN, at sim.Time) (sim.Time, error) {
	if _, ok := b.dirty[lpn]; ok {
		b.hitsW++
		b.touch(lpn)
		return at.Add(b.dramLat), nil
	}
	t := at
	if len(b.dirty) >= b.capacity {
		var err error
		t, err = b.evictOne(f, t)
		if err != nil {
			return 0, err
		}
	}
	b.touch(lpn)
	return t.Add(b.dramLat), nil
}

func (b *writeBuffer) touch(lpn ftl.LPN) {
	b.seq++
	b.dirty[lpn] = b.seq
	b.order = append(b.order, lpn)
}

// evictOne flushes the least-recently-written dirty page.
func (b *writeBuffer) evictOne(f ftl.FTL, at sim.Time) (sim.Time, error) {
	for len(b.order) > 0 {
		lpn := b.order[0]
		seq := b.dirty[lpn]
		b.order = b.order[1:]
		if seqNow, ok := b.dirty[lpn]; !ok || seqNow != seq {
			continue // superseded entry; the newer one is later in order
		}
		delete(b.dirty, lpn)
		b.flushes++
		return f.WritePage(lpn, at)
	}
	return 0, fmt.Errorf("ssd: write buffer accounting inconsistent")
}

// readHit reports whether lpn is buffered; a hit is served at DRAM speed.
func (b *writeBuffer) readHit(lpn ftl.LPN) bool {
	_, ok := b.dirty[lpn]
	if ok {
		b.hitsR++
	}
	return ok
}

// flushAll drains every dirty page through the FTL (used by Drain and by
// tests to reach a consistent flash state).
func (b *writeBuffer) flushAll(f ftl.FTL, at sim.Time) (sim.Time, error) {
	last := at
	for len(b.dirty) > 0 {
		end, err := b.evictOne(f, at)
		if err != nil {
			return 0, err
		}
		if end > last {
			last = end
		}
	}
	b.order = b.order[:0]
	return last, nil
}

// Len returns the number of dirty buffered pages.
func (b *writeBuffer) Len() int { return len(b.dirty) }

// bufferState is a deep copy of the buffer's contents, for checkpoint/fork.
type bufferState struct {
	dirty                 map[ftl.LPN]int
	seq                   int
	order                 []ftl.LPN
	hitsW, hitsR, flushes int64
}

func (b *writeBuffer) snapshot() *bufferState {
	s := &bufferState{
		dirty:   make(map[ftl.LPN]int, len(b.dirty)),
		seq:     b.seq,
		order:   append([]ftl.LPN(nil), b.order...),
		hitsW:   b.hitsW,
		hitsR:   b.hitsR,
		flushes: b.flushes,
	}
	for k, v := range b.dirty {
		s.dirty[k] = v
	}
	return s
}

func (b *writeBuffer) restore(s *bufferState) {
	b.dirty = make(map[ftl.LPN]int, len(s.dirty))
	for k, v := range s.dirty {
		b.dirty[k] = v
	}
	b.seq = s.seq
	b.order = append(b.order[:0], s.order...)
	b.hitsW = s.hitsW
	b.hitsR = s.hitsR
	b.flushes = s.flushes
}
