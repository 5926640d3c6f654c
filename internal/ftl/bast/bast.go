// Package bast implements BAST (block-associative sector translation, Kim
// et al. 2002), the original log-block hybrid FTL that FAST (§II.A) was
// designed to improve on: every logical block that receives an update gets
// its own dedicated log block, and updates append to it in arrival order.
// When no log block is free, the oldest is merged back: a switch merge if
// it happens to hold all pages written sequentially, otherwise a full merge
// of its one logical block.
//
// BAST's weakness — the reason FAST exists — is log-block thrashing: with
// random writes spread over many logical blocks, each log block absorbs
// only a few updates before being evicted, so merges run at a fraction of
// log capacity ("block thrashing"). Including it alongside FAST lets the
// benchmarks show that lineage.
package bast

import (
	"fmt"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

// Config parameterizes BAST.
type Config struct {
	// ExtraPerPlane matches the over-provisioning of the other FTLs.
	ExtraPerPlane int
	// LogBlocks bounds the number of simultaneously open log blocks
	// (default: half the device's extra blocks, minimum 4 — the same
	// budget FAST gets).
	LogBlocks int
	// GCPolicy selects the log-block eviction policy (default "fifo", the
	// original BAST order; see gc.ParsePolicy for the alternatives).
	GCPolicy string
}

// Stats exposes BAST's merge counters.
type Stats struct {
	SwitchMerges int64
	FullMerges   int64
	MergeCopies  int64
	Thrashes     int64 // merges of log blocks holding fewer than 1/4 capacity
}

type logBlock struct {
	lbn  int64
	pb   flash.PlaneBlock
	next int // next free page (appends in arrival order)
	// pageFor[off] is the log page index currently holding offset off, or
	// -1; later appends of the same offset supersede earlier ones.
	pageFor []int
	seq     bool // pages written so far were offsets 0,1,2,... in order
}

// BAST is the baseline FTL. Not safe for concurrent use.
type BAST struct {
	dev      *flash.Device
	geo      flash.Geometry
	cfg      Config
	capacity ftl.LPN

	pool      *ftl.FreeBlocks
	dataBlock []int64        // lbn -> dense block index, -1 if none
	logs      []*logBlock    // lbn -> its dedicated log block, nil if none
	nLogs     int            // open log blocks (non-nil entries of logs)
	logOrder  []int64        // lbns in log-allocation order (merge victims FIFO)
	cands     []gc.Candidate // pickEvict's victim candidates, reused

	engine *gc.Engine // merge moves and log-victim policy picks
	stats  Stats
	rec    obs.Recorder // nil when observability is disabled
}

// New builds a BAST baseline over dev.
func New(dev *flash.Device, cfg Config) (*BAST, error) {
	geo := dev.Geometry()
	if cfg.ExtraPerPlane < 1 || cfg.ExtraPerPlane >= geo.BlocksPerPlane {
		return nil, fmt.Errorf("bast: bad ExtraPerPlane %d", cfg.ExtraPerPlane)
	}
	totalExtra := cfg.ExtraPerPlane * geo.Planes()
	if cfg.LogBlocks == 0 {
		cfg.LogBlocks = totalExtra / 2
	}
	if cfg.LogBlocks < 4 {
		cfg.LogBlocks = 4
	}
	if cfg.LogBlocks > totalExtra-2 {
		return nil, fmt.Errorf("bast: LogBlocks %d leaves no merge slack in %d extra blocks", cfg.LogBlocks, totalExtra)
	}
	capacity := ftl.ExportedPages(geo, cfg.ExtraPerPlane)
	f := &BAST{
		dev:       dev,
		geo:       geo,
		cfg:       cfg,
		capacity:  capacity,
		pool:      ftl.NewFreeBlocks(geo),
		dataBlock: make([]int64, int64(capacity)/int64(geo.PagesPerBlock)),
	}
	f.logs = make([]*logBlock, len(f.dataBlock))
	for i := range f.dataBlock {
		f.dataBlock[i] = -1
	}
	name := cfg.GCPolicy
	if name == "" {
		name = gc.DefaultLogPolicy
	}
	policy, err := gc.ParsePolicy(name, geo.PagesPerBlock)
	if err != nil {
		return nil, err
	}
	// BAST keeps its own merge logic; the engine supplies the eviction
	// policy, the external move primitive, and the unified GC counters.
	f.engine = gc.NewEngine(gc.Config{Dev: dev, Policy: policy})
	return f, nil
}

// Name implements ftl.FTL.
func (f *BAST) Name() string { return "BAST" }

// Capacity implements ftl.FTL.
func (f *BAST) Capacity() ftl.LPN { return f.capacity }

// Stats returns BAST's merge counters.
func (f *BAST) Stats() Stats { return f.stats }

// GCPolicyName reports the log-block eviction policy in effect.
func (f *BAST) GCPolicyName() string { return f.engine.PolicyName() }

// SetRecorder implements ftl.Observable: merge events and spans flow from
// here. BAST keeps its maps in SRAM, so there is no CMT traffic to report.
func (f *BAST) SetRecorder(r obs.Recorder) {
	f.rec = r
	f.engine.SetRecorder(r)
}

func (f *BAST) split(lpn ftl.LPN) (lbn int64, off int) {
	return int64(lpn) / int64(f.geo.PagesPerBlock), int(int64(lpn) % int64(f.geo.PagesPerBlock))
}

func (f *BAST) dataPPN(lbn int64, off int) flash.PPN {
	return flash.PPN(f.dataBlock[lbn]*int64(f.geo.PagesPerBlock) + int64(off))
}

// Lookup returns the physical page currently holding lpn, or InvalidPPN.
func (f *BAST) Lookup(lpn ftl.LPN) flash.PPN {
	if ftl.CheckLPN(lpn, f.capacity) != nil {
		return flash.InvalidPPN
	}
	return f.lookup(lpn)
}

func (f *BAST) lookup(lpn ftl.LPN) flash.PPN {
	lbn, off := f.split(lpn)
	if lb := f.logs[lbn]; lb != nil && lb.pageFor[off] >= 0 {
		return f.geo.PPNOf(lb.pb.Plane, lb.pb.Block, lb.pageFor[off])
	}
	if f.dataBlock[lbn] < 0 {
		return flash.InvalidPPN
	}
	if ppn := f.dataPPN(lbn, off); f.dev.PageState(ppn) == flash.PageValid {
		return ppn
	}
	return flash.InvalidPPN
}

// ReadPage implements ftl.FTL.
func (f *BAST) ReadPage(lpn ftl.LPN, ready sim.Time) (sim.Time, error) {
	if err := ftl.CheckLPN(lpn, f.capacity); err != nil {
		return 0, err
	}
	ppn := f.lookup(lpn)
	if ppn == flash.InvalidPPN {
		return ready, nil
	}
	return f.dev.ReadPage(ppn, ready, flash.CauseHost)
}

// WritePage implements ftl.FTL.
func (f *BAST) WritePage(lpn ftl.LPN, ready sim.Time) (sim.Time, error) {
	if err := ftl.CheckLPN(lpn, f.capacity); err != nil {
		return 0, err
	}
	lbn, off := f.split(lpn)

	if f.dataBlock[lbn] < 0 {
		pb, err := f.alloc()
		if err != nil {
			return 0, err
		}
		f.dataBlock[lbn] = f.geo.BlockIndex(pb)
	}
	// In-place program if the data block's slot is erased and no newer log
	// copy exists.
	if lb := f.logs[lbn]; lb == nil || lb.pageFor[off] < 0 {
		if ppn := f.dataPPN(lbn, off); f.dev.PageState(ppn) == flash.PageFree {
			return f.dev.WritePage(ppn, int64(lpn), ready, flash.CauseHost)
		}
	}
	return f.logWrite(lpn, lbn, off, ready)
}

func (f *BAST) logWrite(lpn ftl.LPN, lbn int64, off int, ready sim.Time) (sim.Time, error) {
	t := ready
	lb := f.logs[lbn]
	if lb != nil && lb.next >= f.geo.PagesPerBlock {
		// This block's own log is full: merge it, then retry placement.
		var err error
		t, err = f.merge(lbn, t)
		if err != nil {
			return 0, err
		}
		return f.WritePage(lpn, t)
	}
	if lb == nil {
		// Need a fresh dedicated log block; evict one chosen by the victim
		// policy (the default fifo picks the oldest, BAST's original order)
		// if at budget.
		for f.nLogs >= f.cfg.LogBlocks {
			var err error
			t, err = f.merge(f.pickEvict(), t)
			if err != nil {
				return 0, err
			}
		}
		pb, err := f.alloc()
		if err != nil {
			return 0, err
		}
		lb = &logBlock{lbn: lbn, pb: pb, pageFor: make([]int, f.geo.PagesPerBlock), seq: true}
		for i := range lb.pageFor {
			lb.pageFor[i] = -1
		}
		f.logs[lbn] = lb
		f.nLogs++
		f.logOrder = append(f.logOrder, lbn)
	}

	old := f.lookup(lpn)
	dst := f.geo.PPNOf(lb.pb.Plane, lb.pb.Block, lb.next)
	end, err := f.dev.WritePage(dst, int64(lpn), t, flash.CauseHost)
	if err != nil {
		return 0, err
	}
	if lb.seq && off != lb.next {
		lb.seq = false
	}
	lb.pageFor[off] = lb.next
	lb.next++
	if old != flash.InvalidPPN {
		if err := f.dev.Invalidate(old); err != nil {
			return 0, err
		}
	}
	return end, nil
}

func (f *BAST) alloc() (flash.PlaneBlock, error) {
	pb, ok := f.pool.TakeAny()
	if !ok {
		return flash.PlaneBlock{}, fmt.Errorf("bast: device exhausted (capacity overcommitted)")
	}
	return pb, nil
}

// pickEvict chooses which open log block to merge when the budget is
// exhausted, by the configured victim policy over the open-log list.
func (f *BAST) pickEvict() int64 {
	f.cands = f.cands[:0]
	for i, lbn := range f.logOrder {
		lb := f.logs[lbn]
		info := f.dev.Block(lb.pb)
		f.cands = append(f.cands, gc.Candidate{
			PB:      lb.pb,
			Valid:   info.Valid,
			Invalid: info.Invalid,
			Age:     int64(len(f.logOrder) - i), // allocation order: oldest first
			Key:     lbn,
		})
	}
	return gc.PickLogVictim(f.engine.Policy(), f.cands).Key
}

// merge retires lbn's log block: a switch merge when it is a complete
// in-order rewrite, otherwise a full merge into a fresh block.
func (f *BAST) merge(lbn int64, ready sim.Time) (sim.Time, error) {
	lb := f.logs[lbn]
	if lb == nil {
		return ready, nil
	}
	if lb.next*4 < f.geo.PagesPerBlock {
		f.stats.Thrashes++ // the classic BAST pathology
	}
	f.logs[lbn] = nil
	f.nLogs--
	for i, l := range f.logOrder {
		if l == lbn {
			f.logOrder = append(f.logOrder[:i], f.logOrder[i+1:]...)
			break
		}
	}
	t := ready
	info := f.dev.Block(lb.pb)
	f.engine.RecordVictim(info.Valid, ready)

	if lb.seq && lb.next == f.geo.PagesPerBlock && info.Invalid == 0 {
		// Switch merge: the log block is a perfect sequential rewrite.
		t, err := f.eraseDataBlock(lbn, t)
		if err != nil {
			return 0, err
		}
		f.dataBlock[lbn] = f.geo.BlockIndex(lb.pb)
		f.stats.SwitchMerges++
		if f.rec != nil {
			f.rec.RecordEvent(obs.EvSwitchMerge, t)
			f.rec.RecordSpan(obs.SpanMerge, int32(lb.pb.Plane), ready, t)
		}
		return t, nil
	}

	// Full merge: gather every valid page of lbn into a fresh block.
	c, err := f.alloc()
	if err != nil {
		return 0, err
	}
	for off := 0; off < f.geo.PagesPerBlock; off++ {
		src := f.lookupMerging(lbn, lb, off)
		if src == flash.InvalidPPN {
			continue
		}
		// The copy runs through the GC engine so the unified relocation
		// counters cover merge traffic (BAST does not use copy-back); the
		// device carries src's tag, which is this offset's logical page.
		dst := f.geo.PPNOf(c.Plane, c.Block, off)
		t, err = f.engine.MoveExternal(src, dst, t)
		if err != nil {
			return 0, err
		}
		f.stats.MergeCopies++
	}
	t, err = f.eraseDataBlock(lbn, t)
	if err != nil {
		return 0, err
	}
	f.dataBlock[lbn] = f.geo.BlockIndex(c)
	end, err := f.dev.Erase(lb.pb, t, flash.CauseGC)
	if err != nil {
		return 0, err
	}
	f.pool.Put(lb.pb)
	f.stats.FullMerges++
	if f.rec != nil {
		f.rec.RecordEvent(obs.EvFullMerge, end)
		f.rec.RecordSpan(obs.SpanMerge, int32(lb.pb.Plane), ready, end)
	}
	return end, nil
}

// lookupMerging resolves lpn while lbn's log block has already been detached
// from the map.
func (f *BAST) lookupMerging(lbn int64, lb *logBlock, off int) flash.PPN {
	if lb.pageFor[off] >= 0 {
		return f.geo.PPNOf(lb.pb.Plane, lb.pb.Block, lb.pageFor[off])
	}
	if f.dataBlock[lbn] < 0 {
		return flash.InvalidPPN
	}
	if ppn := f.dataPPN(lbn, off); f.dev.PageState(ppn) == flash.PageValid {
		return ppn
	}
	return flash.InvalidPPN
}

func (f *BAST) eraseDataBlock(lbn int64, ready sim.Time) (sim.Time, error) {
	if f.dataBlock[lbn] < 0 {
		return ready, nil
	}
	pb := flash.PlaneBlock{
		Plane: int(f.dataBlock[lbn] / int64(f.geo.BlocksPerPlane)),
		Block: int(f.dataBlock[lbn] % int64(f.geo.BlocksPerPlane)),
	}
	f.dataBlock[lbn] = -1
	end, err := f.dev.Erase(pb, ready, flash.CauseGC)
	if err != nil {
		return 0, err
	}
	f.pool.Put(pb)
	return end, nil
}
