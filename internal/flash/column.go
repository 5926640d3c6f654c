package flash

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Columns are the arrays of a simulator whose length follows the device's
// capacity: the device's page words, block rows and erase counts, the
// logical-to-physical tables, and the FTLs' per-block and per-logical-block
// state (free pools, victim indexes, block maps). A column's zero is its
// empty state, so it needs no fill, and on unix builds without the race
// detector a large column is anonymous private memory mapped outside the Go
// heap: its pages read as zero and become resident only when written,
// whether or not the process held an earlier simulator, and FreeColumn
// gives them back to the OS at once rather than after a garbage collection.
// Columns under 64 KiB (the test and fuzz geometries, which are often never
// released), race builds (the race detector instruments only the Go heap)
// and other systems use make.

// Word is a column's element: a fixed-width integer, so a column holds no
// pointer the garbage collector would have to see.
type Word interface {
	~int32 | ~uint32 | ~int64 | ~uint64
}

// columnMapMin is the size, in bytes, from which NewColumn maps a column:
// 64 KiB. A heap column that size is a span of its own, which the runtime
// zeroes whole and which is resident in full, where a mapping is resident
// only where written, so the 0.05-scale devices of quick sweeps map their
// columns too. A column of 16 pages costs one mapping; a test that never
// releases its controller leaks it.
const columnMapMin = 64 << 10

// columnFaults, while positive, counts down the columns NewColumn makes;
// the one that brings it to zero fails as a refused mapping does. Only
// FailColumnAfter sets it.
var columnFaults atomic.Int64

// liveColumns counts the columns NewColumn returned that FreeColumn has not
// yet released.
var liveColumns atomic.Int64

// NewColumn returns a zeroed column of n entries. Its owner releases it
// with FreeColumn when done with it. It fails with ErrColumnMap when the
// memory cannot be mapped (the address space or the system's overcommit
// limit is exhausted).
func NewColumn[T Word](n int64) ([]T, error) {
	size := n * int64(unsafe.Sizeof(T(0)))
	if columnFaults.Load() > 0 && columnFaults.Add(-1) == 0 {
		return nil, fmt.Errorf("flash: mapping a %d-byte column: %w (injected)", size, ErrColumnMap)
	}
	var c []T
	if mapsColumns && size >= columnMapMin {
		b, err := mapColumn(size)
		if err != nil {
			return nil, fmt.Errorf("flash: mapping a %d-byte column: %w: %v", size, ErrColumnMap, err)
		}
		c = unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
	} else {
		c = make([]T, n)
	}
	liveColumns.Add(1)
	return c, nil
}

// FreeColumn releases a column NewColumn returned, whole. Every holder must
// drop its slices of c: reading a mapped column after FreeColumn faults.
// Releasing nil does nothing.
func FreeColumn[T Word](c []T) {
	if c == nil {
		return
	}
	liveColumns.Add(-1)
	if size := len(c) * int(unsafe.Sizeof(c[0])); mapsColumns && size >= columnMapMin {
		unmapColumn(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(c))), size))
	}
}

// FailColumnAfter makes the (n+1)th column NewColumn makes from now on fail
// with ErrColumnMap, as a refused mapping would, and returns a function
// that withdraws the fault if it has not fired. It lets tests reach the
// error paths of every constructor above NewColumn; it is not for use while
// columns are being made concurrently.
func FailColumnAfter(n int) (withdraw func()) {
	columnFaults.Store(int64(n) + 1)
	return func() { columnFaults.Store(0) }
}

// LiveColumns returns how many columns NewColumn has returned that
// FreeColumn has not released: a test that builds and closes simulators
// reads it before and after to find a column no Release frees.
func LiveColumns() int64 { return liveColumns.Load() }
