//go:build unix && !race

package flash

import (
	"fmt"
	"syscall"
)

// mapsColumns is true: a column of columnMapMin bytes or more is mapped.
const mapsColumns = true

// mapColumn maps size zeroed bytes of anonymous private memory.
func mapColumn(size int64) ([]byte, error) {
	return syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
}

// unmapColumn unmaps the bytes of a column mapColumn returned. It panics if
// the kernel refuses: the package mapped exactly this range and unmaps it
// once, so a refusal means a caller released a column twice or a part of
// one, and the memory it names can no longer be trusted.
func unmapColumn(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("flash: unmapping a %d-byte column: %v", len(b), err))
	}
}
