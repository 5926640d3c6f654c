package fast

import (
	"dloop/internal/flash"
	"dloop/internal/ftl"
)

// NewRecovered rebuilds a FAST baseline from an existing device's out-of-band
// page tags after a simulated power loss.
//
// FAST keeps block roles (data block, SW log, RW log) in controller SRAM, and
// the OOB tags alone cannot always reproduce them: a sequential log block that
// rewrote a logical block from offset 0 is indistinguishable from that block's
// data block. Recovery therefore rebuilds a *consistent* state rather than the
// exact pre-crash one: any block whose valid pages all sit at their in-place
// offsets for a single logical block may serve as that block's data block; all
// other occupied blocks are adopted as full RW log blocks, their valid pages
// re-entered into the log map. Lookups resolve identically either way because
// the device holds exactly one valid copy per logical page, and an adopted
// data block accepts in-place writes exactly as the original did. Adopted log
// blocks are merged out by the normal full-merge path; if recovery adopts more
// log blocks than the configured budget, the first post-recovery log write
// merges the surplus down.
func NewRecovered(dev *flash.Device, cfg Config) (*FAST, error) {
	f, err := New(dev, cfg)
	if err != nil {
		return nil, err
	}
	if err := f.recover(); err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

// recover fills a fresh FAST from the device's page tags.
func (f *FAST) recover() error {
	// The scan validates the one-valid-copy-per-lpn invariant and collects
	// the erased blocks into the free pool; block roles are rebuilt below.
	if err := ftl.CheckOOB(f.dev, f.capacity, f.pool); err != nil {
		return err
	}
	geo := f.geo
	ppb := int64(geo.PagesPerBlock)
	for plane := 0; plane < geo.Planes(); plane++ {
		for block := 0; block < geo.BlocksPerPlane; block++ {
			pb := flash.PlaneBlock{Plane: plane, Block: block}
			if f.dev.Block(pb).NextWrite == 0 {
				continue // erased: already in the pool
			}
			first := geo.FirstPPN(pb)
			// Test the in-place property: every valid page at offset off is
			// tagged lbn*ppb+off for one lbn.
			inPlace := true
			lbn := int64(-1)
			for p := 0; p < geo.PagesPerBlock; p++ {
				if f.dev.PageState(first+flash.PPN(p)) != flash.PageValid {
					continue
				}
				tag := f.dev.PageLPN(first + flash.PPN(p))
				if tag%ppb != int64(p) || (lbn >= 0 && tag/ppb != lbn) {
					inPlace = false
				}
				if lbn < 0 {
					lbn = tag / ppb
				}
			}
			if inPlace && lbn >= 0 && f.dataBlock[lbn] == 0 {
				f.dataBlock[lbn] = uint32(geo.BlockIndex(pb) + 1)
				continue
			}
			// Log-resident pages — or a fully-invalid block, which parks here
			// until a full merge erases it back to the pool.
			f.rwFull = append(f.rwFull, pb)
			if err := f.addLogBlock(pb); err != nil {
				return err
			}
		}
	}
	return nil
}
