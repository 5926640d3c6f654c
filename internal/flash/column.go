package flash

// Columns are the capacity-sized []uint32 arrays of a simulator: the
// device's page words and the logical-to-physical tables (4 B per physical
// or logical page). A column's zero is its empty state, so it needs no fill,
// and on unix builds without the race detector a large column is anonymous
// private memory mapped outside the Go heap: its pages read as zero and
// become resident only when written, whether or not the process held an
// earlier simulator, and FreeColumn gives them back to the OS at once
// rather than after a garbage collection. Small columns (the test and fuzz
// geometries, which are often never released), race builds (the race
// detector instruments only the Go heap) and other systems use make.

// columnMapMin is the smallest column, in entries, that NewColumn maps: 1 MiB.
const columnMapMin = 1 << 20 / 4

// NewColumn returns a zeroed column of n entries. Its owner releases it
// with FreeColumn when done with it.
func NewColumn(n int64) []uint32 {
	if n >= columnMapMin {
		if c := mapColumn(n); c != nil {
			return c
		}
	}
	return make([]uint32, n)
}

// FreeColumn releases a column NewColumn returned, whole. Every holder must
// drop its slices of c: reading a mapped column after FreeColumn faults.
// Releasing nil does nothing.
func FreeColumn(c []uint32) {
	if len(c) >= columnMapMin {
		unmapColumn(c)
	}
}
