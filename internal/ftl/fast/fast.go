// Package fast implements the FAST baseline (Lee et al., TECS'07): a hybrid
// FTL with block-mapped data blocks and a small page-mapped log buffer split
// into one sequential-write (SW) log block and a set of fully-associative
// random-write (RW) log blocks.
//
// The whole block map and log page map fit in SRAM (that is the point of
// hybrid FTLs), so FAST pays no translation-page traffic — its cost is merge
// operations: switch merges (free), partial merges (copy the data block's
// tail into the SW log), and the notoriously expensive full merges that
// consolidate every logical block touched by a victim RW log block. All
// merge copies are external read + write pairs through the serial bus and
// channel; FAST is plane-oblivious and allocates in plane-major order.
package fast

import (
	"fmt"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

// Config parameterizes FAST.
type Config struct {
	// ExtraPerPlane is the over-provisioning per plane, matching the other
	// FTLs so every scheme exports the same capacity.
	ExtraPerPlane int
	// GCPolicy selects the RW log-block eviction policy (default "fifo", the
	// original FAST order; see gc.ParsePolicy for the alternatives).
	GCPolicy string
}

// FAST is the baseline FTL. Not safe for concurrent use.
type FAST struct {
	dev      *flash.Device
	geo      flash.Geometry
	capacity ftl.LPN
	// logBlocks is the size of the log buffer (1 SW + the rest RW): half the
	// device's extra blocks, minimum 4. More over-provisioning means a larger
	// log and later, cheaper merges — the Fig. 10 trend.
	logBlocks int

	pool *ftl.FreeBlocks
	// dataBlock maps lbn -> 1 + dense physical block index, 0 if none. A
	// column (flash.NewColumn), as are inLog and logMap's slots.
	dataBlock []uint32
	// The log map. inLog has one bit per LPN, set while the LPN has a
	// log-resident version, and logMap holds those versions' locations, so
	// it has no more entries than the log blocks have pages. Looking up an
	// LPN that is not in the log costs one bit test.
	inLog  []uint64
	logMap logTable

	// The log blocks. Each is written in offset order, so its next page is
	// its high-water mark on the device (next).
	swLBN    int64 // logical block owning the SW log, -1 if inactive
	swBlock  flash.PlaneBlock
	rwActive bool
	rwBlock  flash.PlaneBlock
	rwFull   []flash.PlaneBlock // filled RW log blocks, oldest first
	cands    []gc.Candidate     // fullMerge's victim candidates, reused

	engine *gc.Engine // log-victim policy picks
	// counts holds the merges (a full merge counts each logical block it
	// consolidates) and the pages they copy.
	counts obs.Counts
	rec    obs.Recorder // nil when observability is disabled
}

// New builds a FAST baseline over dev.
func New(dev *flash.Device, cfg Config) (*FAST, error) {
	geo := dev.Geometry()
	if cfg.ExtraPerPlane < 1 || cfg.ExtraPerPlane >= geo.BlocksPerPlane {
		return nil, fmt.Errorf("fast: bad ExtraPerPlane %d", cfg.ExtraPerPlane)
	}
	totalExtra := cfg.ExtraPerPlane * geo.Planes()
	logBlocks := max(totalExtra/2, 4)
	if logBlocks > totalExtra-2 {
		return nil, fmt.Errorf("fast: a %d-block log leaves no merge slack in %d extra blocks",
			logBlocks, totalExtra)
	}
	capacity := ftl.ExportedPages(geo, cfg.ExtraPerPlane)
	name := cfg.GCPolicy
	if name == "" {
		name = gc.DefaultLogPolicy
	}
	policy, err := gc.ParsePolicy(name, geo.PagesPerBlock)
	if err != nil {
		return nil, err
	}
	f := &FAST{
		dev:       dev,
		geo:       geo,
		capacity:  capacity,
		logBlocks: logBlocks,
		swLBN:     -1,
	}
	// The columns come last, and each failure releases those made before
	// it.
	if f.pool, err = ftl.NewFreeBlocks(geo); err == nil {
		if f.dataBlock, err = flash.NewColumn[uint32](int64(capacity) / int64(geo.PagesPerBlock)); err == nil {
			if f.inLog, err = flash.NewColumn[uint64]((int64(capacity) + 63) / 64); err == nil {
				f.logMap, err = newLogTable(logBlocks * geo.PagesPerBlock)
			}
		}
	}
	if err != nil {
		f.Release()
		return nil, err
	}
	// FAST keeps its own merge loop; the engine supplies the victim policy
	// and records its victims.
	f.engine = gc.NewEngine(gc.Config{Dev: dev, Policy: policy}, &f.counts)
	return f, nil
}

// Name implements ftl.FTL.
func (f *FAST) Name() string { return "FAST" }

// Capacity implements ftl.FTL.
func (f *FAST) Capacity() ftl.LPN { return f.capacity }

// Counts implements ftl.FTL.
func (f *FAST) Counts() obs.Counts { return f.counts }

// Release implements ftl.FTL: it frees the free pool, the block map and the
// log map.
func (f *FAST) Release() {
	if f.pool != nil {
		f.pool.Release()
	}
	flash.FreeColumn(f.dataBlock)
	flash.FreeColumn(f.inLog)
	f.dataBlock, f.inLog = nil, nil
	f.logMap.release()
}

// GCPolicyName reports the log-block eviction policy in effect.
func (f *FAST) GCPolicyName() string { return f.engine.PolicyName() }

// SetRecorder implements ftl.Observable: merge spans flow from here, merge
// victims from the engine.
func (f *FAST) SetRecorder(r obs.Recorder) {
	f.rec = r
	f.engine.SetRecorder(r)
}

// LogBlocksInUse returns how many log blocks currently hold data.
func (f *FAST) LogBlocksInUse() int {
	n := len(f.rwFull)
	if f.rwActive {
		n++
	}
	if f.swLBN >= 0 {
		n++
	}
	return n
}

func (f *FAST) split(lpn ftl.LPN) (lbn int64, off int) {
	return int64(lpn) / int64(f.geo.PagesPerBlock), int(int64(lpn) % int64(f.geo.PagesPerBlock))
}

func (f *FAST) dataPPN(lbn int64, off int) flash.PPN {
	return flash.PPN((int64(f.dataBlock[lbn])-1)*int64(f.geo.PagesPerBlock) + int64(off))
}

// logPPN returns lpn's log-resident location, or InvalidPPN.
func (f *FAST) logPPN(lpn ftl.LPN) flash.PPN {
	if f.inLog[lpn>>6]&(1<<(lpn&63)) == 0 {
		return flash.InvalidPPN
	}
	return f.logMap.get(lpn)
}

// setLog records ppn as lpn's log-resident location. It fails only when the
// log map must grow and cannot (see logTable.set), recording nothing.
func (f *FAST) setLog(lpn ftl.LPN, ppn flash.PPN) error {
	if err := f.logMap.set(lpn, ppn); err != nil {
		return err
	}
	f.inLog[lpn>>6] |= 1 << (lpn & 63)
	return nil
}

// dropLog forgets lpn's log-resident location, if it has one.
func (f *FAST) dropLog(lpn ftl.LPN) {
	if w := &f.inLog[lpn>>6]; *w&(1<<(lpn&63)) != 0 {
		*w &^= 1 << (lpn & 63)
		f.logMap.drop(lpn)
	}
}

// addLogBlock enters the valid pages of log block pb into the log map: the
// log map is exactly the log blocks' valid pages, so a checkpoint and a
// recovery both rebuild it this way. Each page must hold an LPN of the space
// that no other log page holds.
func (f *FAST) addLogBlock(pb flash.PlaneBlock) error {
	first := f.geo.FirstPPN(pb)
	for ppn := first; ppn < first+flash.PPN(f.geo.PagesPerBlock); ppn++ {
		if f.dev.PageState(ppn) != flash.PageValid {
			continue
		}
		lpn := ftl.LPN(f.dev.PageLPN(ppn))
		if err := ftl.CheckLPN(lpn, f.capacity); err != nil {
			return fmt.Errorf("fast: log page %d: %w", ppn, err)
		}
		if old := f.logPPN(lpn); old != flash.InvalidPPN {
			return fmt.Errorf("fast: lpn %d is valid in log pages %d and %d", lpn, old, ppn)
		}
		if err := f.setLog(lpn, ppn); err != nil {
			return err
		}
	}
	return nil
}

// next returns the offset of a log block's next page to write.
func (f *FAST) next(pb flash.PlaneBlock) int { return f.dev.Block(pb).NextWrite }

// lookup returns the physical page currently holding lpn, or InvalidPPN.
// Log-resident versions shadow the data block.
func (f *FAST) lookup(lpn ftl.LPN) flash.PPN {
	if ppn := f.logPPN(lpn); ppn != flash.InvalidPPN {
		return ppn
	}
	lbn, off := f.split(lpn)
	if f.dataBlock[lbn] == 0 {
		return flash.InvalidPPN
	}
	if ppn := f.dataPPN(lbn, off); f.dev.PageState(ppn) == flash.PageValid {
		return ppn
	}
	return flash.InvalidPPN
}

// ReadPage implements ftl.FTL. The block map and log map live in SRAM, so
// translation is free; only the flash read is charged.
func (f *FAST) ReadPage(lpn ftl.LPN, ready sim.Time) (sim.Time, error) {
	if err := ftl.CheckLPN(lpn, f.capacity); err != nil {
		return 0, err
	}
	ppn := f.lookup(lpn)
	if ppn == flash.InvalidPPN {
		return ready, nil // never written
	}
	return f.dev.ReadPage(ppn, ready, flash.CauseHost)
}

// WritePage implements ftl.FTL.
func (f *FAST) WritePage(lpn ftl.LPN, ready sim.Time) (sim.Time, error) {
	if err := ftl.CheckLPN(lpn, f.capacity); err != nil {
		return 0, err
	}
	lbn, off := f.split(lpn)

	// First write of this logical block: map a data block.
	if f.dataBlock[lbn] == 0 {
		pb, err := f.alloc()
		if err != nil {
			return 0, err
		}
		f.dataBlock[lbn] = uint32(f.geo.BlockIndex(pb) + 1)
	}
	// In-place program if the data block's slot is still erased.
	if ppn := f.dataPPN(lbn, off); f.dev.PageState(ppn) == flash.PageFree {
		return f.dev.WritePage(ppn, int64(lpn), ready, flash.CauseHost)
	}
	return f.logWrite(lpn, lbn, off, ready)
}

func (f *FAST) logWrite(lpn ftl.LPN, lbn int64, off int, ready sim.Time) (sim.Time, error) {
	t := ready

	switch {
	case f.swLBN == lbn && f.next(f.swBlock) == off:
		// Continue the sequential stream in the SW log.
		old := f.lookup(lpn)
		ppn := f.geo.PPNOf(f.swBlock.Plane, f.swBlock.Block, off)
		end, err := f.dev.WritePage(ppn, int64(lpn), t, flash.CauseHost)
		if err != nil {
			return 0, err
		}
		if err := f.setLog(lpn, ppn); err != nil {
			return 0, err
		}
		if err := f.invalidateOld(old); err != nil {
			return 0, err
		}
		if off+1 == f.geo.PagesPerBlock {
			return f.mergeSW(end) // complete: switch merge
		}
		return end, nil

	case off == 0:
		// A new sequential stream claims the SW log (FAST's heuristic).
		if f.swLBN >= 0 {
			var err error
			t, err = f.mergeSW(t)
			if err != nil {
				return 0, err
			}
		}
		pb, err := f.alloc()
		if err != nil {
			return 0, err
		}
		f.swBlock, f.swLBN = pb, lbn
		// Look up the superseded version only now: the merge above may have
		// relocated it.
		old := f.lookup(lpn)
		ppn := f.geo.PPNOf(pb.Plane, pb.Block, 0)
		end, err := f.dev.WritePage(ppn, int64(lpn), t, flash.CauseHost)
		if err != nil {
			return 0, err
		}
		if err := f.setLog(lpn, ppn); err != nil {
			return 0, err
		}
		return end, f.invalidateOld(old)

	default:
		return f.rwWrite(lpn, t)
	}
}

// rwWrite appends to the fully-associative RW log, running a full merge of
// the oldest RW log block when the log buffer is exhausted.
func (f *FAST) rwWrite(lpn ftl.LPN, ready sim.Time) (sim.Time, error) {
	t := ready
	if f.rwActive && f.next(f.rwBlock) >= f.geo.PagesPerBlock {
		f.rwFull = append(f.rwFull, f.rwBlock)
		f.rwActive = false
	}
	if !f.rwActive {
		// Respect the log-buffer budget (1 SW + RW blocks).
		for f.LogBlocksInUse() >= f.logBlocks {
			var err error
			t, err = f.fullMerge(t)
			if err != nil {
				return 0, err
			}
		}
		pb, err := f.alloc()
		if err != nil {
			return 0, err
		}
		f.rwBlock, f.rwActive = pb, true
	}
	// Look up the superseded version only after any merge above, which may
	// have relocated it.
	old := f.lookup(lpn)
	ppn := f.geo.PPNOf(f.rwBlock.Plane, f.rwBlock.Block, f.next(f.rwBlock))
	end, err := f.dev.WritePage(ppn, int64(lpn), t, flash.CauseHost)
	if err != nil {
		return 0, err
	}
	if err := f.setLog(lpn, ppn); err != nil {
		return 0, err
	}
	return end, f.invalidateOld(old)
}

func (f *FAST) invalidateOld(old flash.PPN) error {
	if old == flash.InvalidPPN {
		return nil
	}
	return f.dev.Invalidate(old)
}

func (f *FAST) alloc() (flash.PlaneBlock, error) {
	pb, ok := f.pool.TakeAny()
	if !ok {
		return flash.PlaneBlock{}, fmt.Errorf("fast: device exhausted (capacity overcommitted)")
	}
	return pb, nil
}

// mergeSW retires the SW log block: a switch merge if it is complete and
// fully valid, a partial merge if it is a clean prefix, otherwise a full
// consolidation of its logical block.
func (f *FAST) mergeSW(ready sim.Time) (sim.Time, error) {
	if f.swLBN < 0 {
		return ready, nil
	}
	lbn := f.swLBN
	b := f.swBlock
	info := f.dev.Block(b)
	t := ready
	var err error

	switch {
	case info.Valid == 0:
		// Every SW page was superseded (e.g. its logical block was already
		// consolidated by a full merge); just reclaim the block. Drop only
		// log entries that still point into it — others are live elsewhere.
		for off := 0; off < info.NextWrite; off++ {
			lpn := ftl.LPN(lbn*int64(f.geo.PagesPerBlock) + int64(off))
			if ppn := f.logPPN(lpn); ppn != flash.InvalidPPN && f.geo.BlockOf(ppn) == b {
				f.dropLog(lpn)
			}
		}
		t, err = f.eraseToPool(b, t)
		if err != nil {
			return 0, err
		}

	case info.NextWrite == f.geo.PagesPerBlock && info.Invalid == 0:
		// Switch merge: the log block becomes the data block.
		t, err = f.retireDataBlock(lbn, t)
		if err != nil {
			return 0, err
		}
		f.adoptAsData(lbn, b)
		f.counts[obs.EvSwitchMerge]++

	case info.Invalid == 0:
		// Partial merge: copy the tail of the logical block into the SW log,
		// then adopt it as the data block.
		for off := info.NextWrite; off < f.geo.PagesPerBlock; off++ {
			lpn := ftl.LPN(lbn*int64(f.geo.PagesPerBlock) + int64(off))
			src := f.lookup(lpn)
			if src == flash.InvalidPPN {
				continue
			}
			dst := f.geo.PPNOf(b.Plane, b.Block, off)
			t, err = f.copyPage(src, dst, t)
			if err != nil {
				return 0, err
			}
			f.dropLog(lpn)
		}
		t, err = f.retireDataBlock(lbn, t)
		if err != nil {
			return 0, err
		}
		f.adoptAsData(lbn, b)
		f.counts[obs.EvPartialMerge]++

	default:
		// The stream was disturbed by random updates: consolidate into a
		// fresh block like a full merge of a single logical block.
		t, err = f.consolidate(lbn, t)
		if err != nil {
			return 0, err
		}
		// The SW block now holds only invalid pages; reclaim it.
		t, err = f.eraseToPool(b, t)
		if err != nil {
			return 0, err
		}
	}
	f.swLBN = -1
	if f.rec != nil {
		f.rec.RecordSpan(obs.SpanMerge, int32(b.Plane), ready, t)
	}
	return t, nil
}

// adoptAsData makes the (former SW log) block the data block of lbn and
// drops its pages from the log map.
func (f *FAST) adoptAsData(lbn int64, b flash.PlaneBlock) {
	for off := 0; off < f.geo.PagesPerBlock; off++ {
		f.dropLog(ftl.LPN(lbn*int64(f.geo.PagesPerBlock) + int64(off)))
	}
	f.dataBlock[lbn] = uint32(f.geo.BlockIndex(b) + 1)
}

// retireDataBlock erases lbn's old data block if it no longer holds valid
// pages worth keeping (its live pages were superseded or copied out).
func (f *FAST) retireDataBlock(lbn int64, ready sim.Time) (sim.Time, error) {
	bi := int64(f.dataBlock[lbn]) - 1
	if bi < 0 {
		return ready, nil
	}
	pb := flash.PlaneBlock{
		Plane: int(bi / int64(f.geo.BlocksPerPlane)),
		Block: int(bi % int64(f.geo.BlocksPerPlane)),
	}
	f.dataBlock[lbn] = 0
	return f.eraseToPool(pb, ready)
}

func (f *FAST) eraseToPool(pb flash.PlaneBlock, ready sim.Time) (sim.Time, error) {
	// Any straggler valid pages must be gone by construction; Erase checks.
	end, err := f.dev.Erase(pb, ready, flash.CauseGC)
	if err != nil {
		return 0, err
	}
	f.pool.Put(pb)
	return end, nil
}

// copyPage is FAST's merge move: an external read + write pair through the
// bus (FAST does not use copy-back), invalidating the source. The device
// counts it among its GC writes, as it does the page-mapping schemes' moves.
func (f *FAST) copyPage(src, dst flash.PPN, ready sim.Time) (sim.Time, error) {
	t, err := f.dev.MoveExternal(src, dst, ready, flash.CauseGC)
	if err != nil {
		return 0, err
	}
	f.counts[obs.EvMergeCopy]++
	return t, nil
}

// consolidate gathers every valid page of lbn (from its data block, the SW
// log, and any RW log block) into a freshly allocated block, which becomes
// the new data block. The old data block is erased.
func (f *FAST) consolidate(lbn int64, ready sim.Time) (sim.Time, error) {
	c, err := f.alloc()
	if err != nil {
		return 0, err
	}
	t := ready
	for off := 0; off < f.geo.PagesPerBlock; off++ {
		lpn := ftl.LPN(lbn*int64(f.geo.PagesPerBlock) + int64(off))
		src := f.lookup(lpn)
		if src == flash.InvalidPPN {
			continue
		}
		dst := f.geo.PPNOf(c.Plane, c.Block, off)
		t, err = f.copyPage(src, dst, t)
		if err != nil {
			return 0, err
		}
		f.dropLog(lpn)
	}
	t, err = f.retireDataBlock(lbn, t)
	if err != nil {
		return 0, err
	}
	f.dataBlock[lbn] = uint32(f.geo.BlockIndex(c) + 1)
	f.counts[obs.EvFullMerge]++
	return t, nil
}

// fullMerge evicts a filled RW log block chosen by the victim policy (the
// default fifo picks the oldest, FAST's original order): every logical block
// with a valid page in it is consolidated, after which the victim is erased.
func (f *FAST) fullMerge(ready sim.Time) (sim.Time, error) {
	if len(f.rwFull) == 0 {
		// The budget is consumed by the SW log and the active RW block;
		// retire the SW log to make room.
		return f.mergeSW(ready)
	}
	f.cands = f.cands[:0]
	for i, pb := range f.rwFull {
		info := f.dev.Block(pb)
		f.cands = append(f.cands, gc.Candidate{
			PB:      pb,
			Valid:   info.Valid,
			Invalid: info.Invalid,
			Age:     int64(len(f.rwFull) - i), // list order: oldest first
			Key:     int64(i),
		})
	}
	pick := gc.PickLogVictim(f.engine.Policy(), f.cands)
	victim := pick.PB
	i := int(pick.Key)
	f.rwFull = append(f.rwFull[:i], f.rwFull[i+1:]...)
	f.engine.RecordVictim(pick.Valid, ready)

	t := ready
	first := f.geo.FirstPPN(victim)
	for p := 0; p < f.geo.PagesPerBlock; p++ {
		src := first + flash.PPN(p)
		if f.dev.PageState(src) != flash.PageValid {
			continue
		}
		// Consolidating a logical block moves every valid page it has, so
		// none of its pages in the victim is still valid further down.
		lbn := f.dev.PageLPN(src) / int64(f.geo.PagesPerBlock)
		var err error
		t, err = f.consolidate(lbn, t)
		if err != nil {
			return 0, err
		}
	}
	end, err := f.eraseToPool(victim, t)
	if err != nil {
		return 0, err
	}
	if f.rec != nil {
		f.rec.RecordSpan(obs.SpanMerge, int32(victim.Plane), ready, end)
	}
	return end, nil
}

// Lookup returns the current physical page of lpn without charging simulated
// time; tests and consistency checks use it.
func (f *FAST) Lookup(lpn ftl.LPN) flash.PPN {
	if err := ftl.CheckLPN(lpn, f.capacity); err != nil {
		return flash.InvalidPPN
	}
	return f.lookup(lpn)
}
