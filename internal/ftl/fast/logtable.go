package fast

import (
	"dloop/internal/flash"
	"dloop/internal/ftl"
)

// logTable maps log-resident LPNs to their pages. It is a power-of-two
// table of lpn<<32 | ppn+1 words (both fit in 32 bits, as every page number
// lies below the device's page limit), where 0 is an empty slot, probed
// linearly from a multiplicative hash. A deletion shifts the entries after
// it back into the hole instead of leaving a tombstone, so a probe always
// ends at the first empty slot.
//
// Its slots are a column (flash.NewColumn), so a fresh table is
// zero-backed: its slots cost host memory only once written. It starts at
// twice the log blocks' pages, which the log map never exceeds in service,
// and doubles past three-quarters full, which only more log blocks than the
// budget reach: a recovery may adopt them, and a checkpoint of its state
// lists them.
type logTable struct {
	slots []uint64
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits
	n     int  // entries held
}

// newLogTable returns an empty table sized for pages entries.
func newLogTable(pages int) (logTable, error) {
	bits := uint(3)
	for 1<<bits < 2*pages {
		bits++
	}
	slots, err := flash.NewColumn[uint64](1 << bits)
	return logTable{slots: slots, shift: 64 - bits}, err
}

// release frees the table's column; the table must not be used afterwards.
func (t *logTable) release() {
	flash.FreeColumn(t.slots)
	t.slots = nil
}

// home returns lpn's first probe slot.
func (t *logTable) home(lpn uint64) int {
	return int(lpn * 0x9e3779b97f4a7c15 >> t.shift)
}

// find returns lpn's slot, or the empty slot that ends its probe run.
func (t *logTable) find(lpn uint64) int {
	mask := len(t.slots) - 1
	i := t.home(lpn)
	for w := t.slots[i]; w != 0 && w>>32 != lpn; w = t.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// get returns lpn's page, or InvalidPPN (an empty slot's ppn+1 is 0).
func (t *logTable) get(lpn ftl.LPN) flash.PPN {
	return flash.PPN(uint32(t.slots[t.find(uint64(lpn))])) - 1
}

// set maps lpn to ppn, replacing any page it had. A new entry that would
// take the table past three-quarters full grows it first; set fails, and
// leaves the table as it was, only when the larger column cannot be had.
func (t *logTable) set(lpn ftl.LPN, ppn flash.PPN) error {
	i := t.find(uint64(lpn))
	if t.slots[i] == 0 {
		if 4*(t.n+1) > 3*len(t.slots) {
			if err := t.grow(); err != nil {
				return err
			}
			i = t.find(uint64(lpn))
		}
		t.n++
	}
	t.slots[i] = uint64(lpn)<<32 | uint64(ppn+1)
	return nil
}

// drop removes lpn, if present. Each entry of the probe run after the hole
// moves into it when the hole lies on the entry's own probe path (between
// its home slot and where it sits), which keeps every entry reachable.
func (t *logTable) drop(lpn ftl.LPN) {
	i := t.find(uint64(lpn))
	if t.slots[i] == 0 {
		return
	}
	t.n--
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		if h := t.home(t.slots[j] >> 32); (j-i)&mask <= (j-h)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = 0
}

// reset empties the table, keeping its size. Only the slots in use are
// written, so the column's untouched pages stay non-resident.
func (t *logTable) reset() {
	for i, w := range t.slots {
		if w != 0 {
			t.slots[i] = 0
		}
	}
	t.n = 0
}

// grow doubles the table and re-enters its entries.
func (t *logTable) grow() error {
	slots, err := flash.NewColumn[uint64](2 * int64(len(t.slots)))
	if err != nil {
		return err
	}
	old := t.slots
	*t = logTable{slots: slots, shift: t.shift - 1}
	for _, w := range old {
		if w != 0 {
			// The doubled table stays below three-eighths full: no entry
			// grows it again, so none fails.
			t.set(ftl.LPN(w>>32), flash.PPN(uint32(w))-1)
		}
	}
	flash.FreeColumn(old)
	return nil
}
