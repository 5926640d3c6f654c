package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Future slabs.
//
// The multi-queue front end in internal/ssd dispatches page commands to FTL
// shard workers and parks each request's completion until an epoch fold, so
// the host must name a page's completion time *before* the worker that
// executes it has computed it. A slab slot is that promise: the host
// allocates one per dispatched page, in dispatch order, the worker that
// executes the page resolves it, and the host waits on it while folding the
// epoch, in arrival order.

const (
	slabChunkBits = 14
	slabChunkSize = 1 << slabChunkBits // slots per chunk
	slabChunkMask = slabChunkSize - 1
	slabMaxChunks = 1 << 12 // 2^26 slots; a front-end epoch holds at most 2^22
)

// futureUnresolved marks a slot whose worker has not published an end time
// yet. Simulated times are non-negative, so any negative sentinel works.
const futureUnresolved = int64(-1)

type slabChunk [slabChunkSize]atomic.Int64

// FutureSlab is the single-producer store of parked completion times. The
// host goroutine allocates slots and reads them back when it folds the
// epoch; exactly one shard worker publishes each slot's value. Slots are
// recycled wholesale by Reset at epoch boundaries, when the front end has
// read every slot back — individual slots are never freed.
//
// Storage is a table of atomically published fixed-size chunks so that a
// growing slab never moves a slot a worker might be writing.
type FutureSlab struct {
	chunks [slabMaxChunks]atomic.Pointer[slabChunk]
	next   int // host only
}

// NewSlot allocates the next slot, marks it unresolved, and returns its
// index: slots count up from 0 after every Reset. Host only.
func (s *FutureSlab) NewSlot() int {
	idx := s.next
	ci := idx >> slabChunkBits
	if ci >= slabMaxChunks {
		panic(fmt.Sprintf("sim: future slab overflow (%d live slots); missing epoch flush", idx))
	}
	ch := s.chunks[ci].Load()
	if ch == nil {
		ch = new(slabChunk)
		s.chunks[ci].Store(ch)
	}
	ch[idx&slabChunkMask].Store(futureUnresolved)
	s.next++
	return idx
}

// Resolve publishes the end time for a slot. Called by the one worker that
// executed the slot's operation.
func (s *FutureSlab) Resolve(slot int, end Time) {
	s.chunks[slot>>slabChunkBits].Load()[slot&slabChunkMask].Store(int64(end))
}

// Wait blocks until a slot resolves and returns its value. Waits are short —
// the front end folds an epoch only after handing the next one to the
// shards, so the op being waited on was issued an epoch earlier — and on a
// loaded machine yielding beats spinning.
func (s *FutureSlab) Wait(slot int) Time {
	slotp := &s.chunks[slot>>slabChunkBits].Load()[slot&slabChunkMask]
	for i := 0; ; i++ {
		if v := slotp.Load(); v != futureUnresolved {
			return Time(v)
		}
		if i > 16 {
			runtime.Gosched()
		}
	}
}

// Reset recycles every slot. The caller must have synchronized with all
// workers and read back every slot it still needs first.
func (s *FutureSlab) Reset() { s.next = 0 }
