package ftl

import (
	"fmt"

	"dloop/internal/flash"
)

// Power-loss recovery. NAND controllers store each page's logical address in
// the page's out-of-band (OOB) spare area — the device model keeps that tag
// (flash.Device.PageLPN) — so after a crash the whole mapping can be rebuilt
// by scanning the device: every valid page names its logical owner, every
// fully-free block returns to the pool, and partially-written blocks resume
// as write points. This is also what makes the translation engine's lazy GC
// redirects safe: a translation page left stale on flash is never the
// authority — the OOB tags are.

// PartialBlock is a block the scan found partially programmed: it was a
// write point when power failed and resumes as one.
type PartialBlock struct {
	PB        flash.PlaneBlock
	NextWrite int
}

// RecoveredState is the outcome of an OOB scan.
type RecoveredState struct {
	// Table maps each logical page to its valid physical page.
	Table flash.PPNMap
	// GTD maps each translation-page number to its valid physical page.
	GTD flash.PPNMap
	// Partial lists partially-written blocks, at most one per plane for
	// per-plane write-point designs.
	Partial []PartialBlock
}

// ScanOOB rebuilds FTL state from device page tags after a simulated power
// loss. capacity is the exported logical-page count; translationPages the
// GTD size. It fills the FTL's own structures in place: pool ends up holding
// exactly the fully-erased blocks, and tracker, unless nil, gains every
// fully-written block as a candidate (it must have none before). The scan is
// structural: it consumes no simulated time because recovery time is
// outside the paper's measurements, but a real controller would pay one
// read per page (or per block summary page).
func ScanOOB(dev *flash.Device, capacity LPN, translationPages int, pool *FreeBlocks, tracker *Tracker) (*RecoveredState, error) {
	table, err := flash.NewColumn[uint32](int64(capacity))
	if err != nil {
		return nil, err
	}
	st := &RecoveredState{Table: table, GTD: make(flash.PPNMap, translationPages)}
	st.Partial, err = scanOOB(dev, capacity, st.GTD, pool, tracker, func(lpn LPN, ppn flash.PPN) bool {
		if st.Table.Get(int64(lpn)) != flash.InvalidPPN {
			return false
		}
		st.Table.Set(int64(lpn), ppn)
		return true
	})
	if err != nil {
		st.Release()
		return nil, err
	}
	return st, nil
}

// CheckOOB is ScanOOB for an FTL that keeps no page table and no GTD
// (FAST): it refuses the same devices with the same errors and fills pool
// alike, but marks each logical page in a set of one bit per page (a
// column, released when the scan ends) instead of building a
// capacity-sized table.
func CheckOOB(dev *flash.Device, capacity LPN, pool *FreeBlocks) error {
	seen, err := flash.NewColumn[uint64]((int64(capacity) + 63) / 64)
	if err != nil {
		return err
	}
	defer flash.FreeColumn(seen)
	_, err = scanOOB(dev, capacity, nil, pool, nil, func(lpn LPN, _ flash.PPN) bool {
		w, bit := lpn>>6, uint64(1)<<(lpn&63)
		if seen[w]&bit != 0 {
			return false
		}
		seen[w] |= bit
		return true
	})
	return err
}

// Release frees the recovered table (see flash.NewColumn) once its owner
// has copied what it needs.
func (st *RecoveredState) Release() {
	flash.FreeColumn(st.Table)
	st.Table = nil
}

// scanOOB walks every page of dev. It hands each valid data page to claim,
// which returns false when the page's LPN already has a valid copy, fills
// gtd with the translation pages, empties pool and refills it with the
// erased blocks, closes the fully-written ones into tracker (unless nil)
// and returns the partially-written ones.
func scanOOB(dev *flash.Device, capacity LPN, gtd flash.PPNMap, pool *FreeBlocks, tracker *Tracker,
	claim func(LPN, flash.PPN) bool) ([]PartialBlock, error) {
	geo := dev.Geometry()
	translationPages := gtd.Len()
	pool.empty()

	var partial []PartialBlock
	for plane := 0; plane < geo.Planes(); plane++ {
		for block := 0; block < geo.BlocksPerPlane; block++ {
			pb := flash.PlaneBlock{Plane: plane, Block: block}
			first := geo.FirstPPN(pb)
			for p := 0; p < geo.PagesPerBlock; p++ {
				ppn := first + flash.PPN(p)
				if dev.PageState(ppn) != flash.PageValid {
					continue
				}
				stored := dev.PageLPN(ppn)
				if IsTrans(stored) {
					tvpn := DecodeTrans(stored)
					if tvpn < 0 || tvpn >= int64(translationPages) {
						return nil, fmt.Errorf("ftl: recovery found translation page %d outside GTD of %d", tvpn, translationPages)
					}
					if gtd.Get(tvpn) != flash.InvalidPPN {
						return nil, fmt.Errorf("ftl: recovery found two valid copies of translation page %d", tvpn)
					}
					gtd.Set(tvpn, ppn)
					continue
				}
				lpn := LPN(stored)
				if err := CheckLPN(lpn, capacity); err != nil {
					return nil, fmt.Errorf("ftl: recovery: %w", err)
				}
				if !claim(lpn, ppn) {
					return nil, fmt.Errorf("ftl: recovery found two valid copies of lpn %d", lpn)
				}
			}
			switch next := dev.Block(pb).NextWrite; {
			case next == 0:
				pool.Put(pb)
			case next < geo.PagesPerBlock:
				partial = append(partial, PartialBlock{PB: pb, NextWrite: next})
			case tracker != nil:
				tracker.Close(pb)
			}
		}
	}
	return partial, nil
}
