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
// Each plane's pool is a FIFO queue (blocks hand out in the order they were
// freed, starting from block 0 on a fresh device) backed by a fixed circular
// buffer: a plane can never hold more than BlocksPerPlane free blocks, so
// the buffer never grows and sustained take/put churn under garbage
// collection allocates nothing.
type FreeBlocks struct {
	planes []planeQueue
	total  int
}

// planeQueue is one plane's FIFO of free in-plane block indices.
type planeQueue struct {
	buf  []int32
	head int // index of the front element
	n    int // queued count
}

func (q *planeQueue) take() int {
	b := int(q.buf[q.head])
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return b
}

func (q *planeQueue) put(b int) {
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = int32(b)
	q.n++
}

// NewFreeBlocks returns a pool containing every block of the geometry, all
// free (a freshly erased device).
func NewFreeBlocks(geo flash.Geometry) *FreeBlocks {
	f := &FreeBlocks{planes: make([]planeQueue, geo.Planes())}
	for p := range f.planes {
		blocks := make([]int32, geo.BlocksPerPlane)
		for b := range blocks {
			blocks[b] = int32(b)
		}
		f.planes[p] = planeQueue{buf: blocks, n: geo.BlocksPerPlane}
	}
	f.total = geo.Planes() * geo.BlocksPerPlane
	return f
}

// Total returns the number of free blocks device-wide.
func (f *FreeBlocks) Total() int { return f.total }

// InPlane returns the number of free blocks on one plane.
func (f *FreeBlocks) InPlane(plane int) int { return f.planes[plane].n }

// TakeFromPlane removes and returns the longest-free block of the given
// plane. ok is false if the plane has none.
func (f *FreeBlocks) TakeFromPlane(plane int) (pb flash.PlaneBlock, ok bool) {
	q := &f.planes[plane]
	if q.n == 0 {
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

func (f *FreeBlocks) String() string {
	return fmt.Sprintf("free blocks: %d over %d planes", f.total, len(f.planes))
}
