//go:build unix && !race

package flash

import (
	"fmt"
	"syscall"
	"unsafe"
)

// mapColumn maps n zeroed entries of anonymous private memory. Like make,
// it panics when the memory cannot be had.
func mapColumn(n int64) []uint32 {
	b, err := syscall.Mmap(-1, 0, int(4*n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("flash: mapping a %d-entry column: %v", n, err))
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}

// unmapColumn unmaps a column mapColumn returned; anything else (a part of
// one, or one already unmapped) panics.
func unmapColumn(c []uint32) {
	if err := syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&c[0])), 4*len(c))); err != nil {
		panic(fmt.Sprintf("flash: unmapping a %d-entry column: %v", len(c), err))
	}
}
