package flash

import (
	"encoding/binary"

	"dloop/internal/ckpt"
)

// PPNMap is a column of physical page numbers indexed by a logical number
// (an LPN, a translation-page number). An entry holds ppn+1, so a fresh
// make(PPNMap, n) reads InvalidPPN everywhere without an initialisation pass,
// and only the entries a run sets become resident. Device page numbers stay
// below maxPages, so ppn+1 fits. Copies are plain copy/append of the slice.
type PPNMap []uint32

// Get returns the page number stored at i, or InvalidPPN.
func (m PPNMap) Get(i int64) PPN { return PPN(m[i]) - 1 }

// Set stores a device page number or InvalidPPN at i.
func (m PPNMap) Set(i int64, ppn PPN) { m[i] = uint32(ppn + 1) }

// Len returns the number of entries.
func (m PPNMap) Len() int { return len(m) }

// Mappable reports whether a PPNMap can hold ppn: InvalidPPN, or a page
// number some device could have.
func Mappable(ppn PPN) bool { return ppn == InvalidPPN || uint64(ppn) < maxPages }

// EncodePPNMap appends m to w as a u32 count and one little-endian int64 per
// entry, -1 for InvalidPPN.
func EncodePPNMap(w *ckpt.Writer, m PPNMap) {
	w.U32(uint32(len(m)))
	dst := w.Raw(8 * len(m))
	for i := range m {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(m.Get(int64(i))))
	}
}

// DecodePPNMap reads a column written by EncodePPNMap, nil if empty. An entry
// that is not Mappable fails r with ErrUnmappable.
func DecodePPNMap(r *ckpt.Reader) PPNMap {
	raw := r.Raw(8 * r.SliceLen(8))
	if len(raw) == 0 {
		return nil
	}
	m := make(PPNMap, len(raw)/8)
	for i := range m {
		ppn := PPN(binary.LittleEndian.Uint64(raw[8*i:]))
		if !Mappable(ppn) {
			r.Failf("flash: PPN column entry %d holds %d: %w", i, ppn, ErrUnmappable)
			return nil
		}
		m.Set(int64(i), ppn)
	}
	return m
}
