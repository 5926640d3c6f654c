package flash

import (
	"dloop/internal/ckpt"
)

// PPNMap is a column of physical page numbers indexed by a logical number
// (an LPN, a translation-page number). An entry holds ppn+1, so a zeroed
// column reads InvalidPPN everywhere without an initialisation pass. A
// capacity-sized map comes from NewColumn, where only the entries a run sets
// become resident and FreeColumn returns it at the owner's end of life; a
// small one (the GTD) is a plain make. Device page numbers stay below
// maxPages, so ppn+1 fits.
type PPNMap []uint32

// Get returns the page number stored at i, or InvalidPPN.
func (m PPNMap) Get(i int64) PPN { return PPN(m[i]) - 1 }

// Set stores a device page number or InvalidPPN at i.
func (m PPNMap) Set(i int64, ppn PPN) { m[i] = uint32(ppn + 1) }

// Len returns the number of entries.
func (m PPNMap) Len() int { return len(m) }

// EncodeState appends m to w as a u32 count and one little-endian int64 per
// entry, -1 for InvalidPPN.
func (m PPNMap) EncodeState(w *ckpt.Writer) {
	w.U32(uint32(len(m)))
	dst := w.Raw(8 * len(m))
	var buf [256]uint64
	for i := 0; i < len(m); i += len(buf) {
		chunk := buf[:min(len(buf), len(m)-i)]
		for j, v := range m[i : i+len(chunk)] {
			chunk[j] = uint64(v) - 1 // ppn+1 back to ppn; 0 to InvalidPPN
		}
		ckpt.Store(dst[8*i:], chunk)
	}
}

// DecodeState overwrites m with a column EncodeState wrote, which must have
// m's length. Only the entries that change are written, so the pages of a
// fresh column that the decoded map leaves unmapped stay non-resident. An entry that is neither InvalidPPN nor a page number some
// device could have fails r with ErrUnmappable.
func (m PPNMap) DecodeState(r *ckpt.Reader) {
	raw := r.Raw(8 * r.ExpectLen(len(m), 8))
	var buf [256]uint64
	for i := 0; i < len(raw)/8; i += len(buf) {
		chunk := buf[:min(len(buf), len(raw)/8-i)]
		ckpt.Load(chunk, raw[8*i:])
		dst := m[i : i+len(chunk)]
		for j, v := range chunk {
			// The stored ppn+1 is at most maxPages exactly when the entry
			// is InvalidPPN (stored 0) or a page some device could have.
			if v++; v > maxPages {
				r.Failf("flash: PPN column entry %d holds %d: %w", i+j, int64(v-1), ErrUnmappable)
				return
			}
			if dst[j] != uint32(v) {
				dst[j] = uint32(v)
			}
		}
	}
}
