package ftl

import (
	"fmt"

	"dloop/internal/flash"
)

// FreeBlocks tracks the erased blocks of a device, grouped per plane. DLOOP
// maintains a pool per plane (§III.C); DFTL and FAST draw from the device
// globally in plane-major order, which is what concentrates their allocation
// on low-numbered planes (§V.B's explanation of DFTL's TPC-C collapse).
//
// Each plane's pool is a FIFO queue: blocks hand out in the order they were
// freed, starting from block 0 on a fresh device. The blocks a fresh device
// starts with are implicit: they hand out from a counter, and only a block
// put back after an erase enters the plane's ring, a fixed circular buffer
// of BlocksPerPlane entries. Every never-used block precedes every recycled
// one in the queue, so the counter then the ring is the queue in order. The
// rings are one column (flash.NewColumn), written only as blocks recycle:
// a run with no erase never touches it, and sustained take/put churn under
// garbage collection allocates nothing.
type FreeBlocks struct {
	planes []planeQueue
	rings  []uint32 // plane p's ring is rings[p*BlocksPerPlane:][:BlocksPerPlane]
	total  int
}

// planeQueue is one plane's FIFO of free in-plane block indices: blocks
// [fresh, len(ring)) never taken, then n recycled blocks from ring[head].
type planeQueue struct {
	ring    []uint32
	fresh   int
	head, n int
}

// size returns the number of queued blocks.
func (q *planeQueue) size() int { return len(q.ring) - q.fresh + q.n }

func (q *planeQueue) take() int {
	if q.fresh < len(q.ring) {
		q.fresh++
		return q.fresh - 1
	}
	b := int(q.ring[q.head])
	q.head++
	if q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	return b
}

func (q *planeQueue) put(b int) {
	i := q.head + q.n
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = uint32(b)
	q.n++
}

// at returns the i-th queued block, counting from the front.
func (q *planeQueue) at(i int) int {
	if i < len(q.ring)-q.fresh {
		return q.fresh + i
	}
	j := q.head + i - (len(q.ring) - q.fresh)
	if j >= len(q.ring) {
		j -= len(q.ring)
	}
	return int(q.ring[j])
}

// NewFreeBlocks returns a pool containing every block of the geometry, all
// free (a freshly erased device). Release frees its column.
func NewFreeBlocks(geo flash.Geometry) (*FreeBlocks, error) {
	rings, err := flash.NewColumn[uint32](geo.TotalBlocks())
	if err != nil {
		return nil, err
	}
	f := &FreeBlocks{planes: make([]planeQueue, geo.Planes()), rings: rings}
	for p := range f.planes {
		f.planes[p] = planeQueue{ring: rings[p*geo.BlocksPerPlane:][:geo.BlocksPerPlane]}
	}
	f.total = geo.Planes() * geo.BlocksPerPlane
	return f, nil
}

// Release frees the pool's column. The pool must not be used afterwards: a
// take or put then panics with an index error. Releasing again does
// nothing.
func (f *FreeBlocks) Release() {
	flash.FreeColumn(f.rings)
	f.rings, f.planes = nil, nil
}

// Total returns the number of free blocks device-wide.
func (f *FreeBlocks) Total() int { return f.total }

// InPlane returns the number of free blocks on one plane.
func (f *FreeBlocks) InPlane(plane int) int { return f.planes[plane].size() }

// TakeFromPlane removes and returns the longest-free block of the given
// plane. ok is false if the plane has none.
func (f *FreeBlocks) TakeFromPlane(plane int) (pb flash.PlaneBlock, ok bool) {
	q := &f.planes[plane]
	if q.size() == 0 {
		return flash.PlaneBlock{}, false
	}
	f.total--
	return flash.PlaneBlock{Plane: plane, Block: q.take()}, true
}

// TakeAny removes and returns a free block in plane-major order: the
// lowest-numbered plane that has one. ok is false if the device has none.
func (f *FreeBlocks) TakeAny() (pb flash.PlaneBlock, ok bool) {
	for plane := range f.planes {
		if pb, ok := f.TakeFromPlane(plane); ok {
			return pb, true
		}
	}
	return flash.PlaneBlock{}, false
}

// Put returns an erased block to the back of its plane's queue.
func (f *FreeBlocks) Put(pb flash.PlaneBlock) {
	f.planes[pb.Plane].put(pb.Block)
	f.total++
}

// empty leaves every plane's queue empty, with no block implicit: what a
// recovery scan refills with Put.
func (f *FreeBlocks) empty() {
	for p := range f.planes {
		q := &f.planes[p]
		q.fresh, q.head, q.n = len(q.ring), 0, 0
	}
	f.total = 0
}

func (f *FreeBlocks) String() string {
	return fmt.Sprintf("free blocks: %d over %d planes", f.total, len(f.planes))
}
