package trace

import "unsafe"

// ArenaBytes returns the bytes a holds: its record segments and its block
// headers, by capacity.
func ArenaBytes(a *Arena) int {
	n := cap(a.blocks) * int(unsafe.Sizeof(block{}))
	for _, s := range a.segs {
		n += cap(s)
	}
	return n
}
