// Package pagemap implements an idealized page-mapping FTL: the complete
// logical-to-physical table lives in SRAM, so address translation is free.
// No real controller can afford that RAM at SSD scale (§II.A: the table
// "generates an expensive SRAM cache overhead"), which is exactly why DFTL
// and DLOOP demand-page it — but the ideal makes a useful upper-bound
// baseline: the gap between PureMap and DFTL is the price of demand paging;
// the gap between PureMap striped and unstriped isolates placement effects
// from mapping effects.
//
// Placement is configurable: Striped follows DLOOP's equation (1) and
// collects per plane with copy-back; unstriped appends to one global write
// point and collects globally with external moves, like DFTL's layout.
package pagemap

import (
	"fmt"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

// Config parameterizes the ideal FTL.
type Config struct {
	// GCThreshold triggers collection when a pool drops below it (default 3).
	GCThreshold int
	// ExtraPerPlane matches the over-provisioning of the other FTLs.
	ExtraPerPlane int
	// Striped selects DLOOP-style placement (equation (1), per-plane pools,
	// copy-back GC). False selects DFTL-style plane-oblivious appending
	// with external GC moves.
	Striped bool
	// GCPolicy selects the garbage-collection victim policy (default
	// "greedy"; see gc.ParsePolicy for the alternatives).
	GCPolicy string
}

func (c *Config) setDefaults() {
	if c.GCThreshold == 0 {
		c.GCThreshold = 3
	}
}

// Stats exposes the ideal FTL's counters.
type Stats struct {
	GCRuns      int64
	GCMoves     int64
	ParityWaste int64
}

type writePoint struct {
	pb     flash.PlaneBlock
	next   int
	active bool
}

// PureMap is the ideal page-mapping FTL. Not safe for concurrent use.
type PureMap struct {
	dev      *flash.Device
	geo      flash.Geometry
	cfg      Config
	capacity ftl.LPN

	table   flash.PPNMap
	pool    *ftl.FreeBlocks
	tracker *ftl.Tracker
	cur     []writePoint // per plane when striped; index 0 otherwise
	engine  *gc.Engine   // owns the collect loop and reentrancy guards

	rec obs.Recorder // nil when observability is disabled
}

// New builds an ideal page-mapping FTL over dev.
func New(dev *flash.Device, cfg Config) (*PureMap, error) {
	cfg.setDefaults()
	geo := dev.Geometry()
	if cfg.ExtraPerPlane < cfg.GCThreshold+1 || cfg.ExtraPerPlane >= geo.BlocksPerPlane {
		return nil, fmt.Errorf("pagemap: bad ExtraPerPlane %d", cfg.ExtraPerPlane)
	}
	f := &PureMap{
		dev:      dev,
		geo:      geo,
		cfg:      cfg,
		capacity: ftl.ExportedPages(geo, cfg.ExtraPerPlane),
		pool:     ftl.NewFreeBlocks(geo),
		tracker:  ftl.NewTracker(geo),
		cur:      make([]writePoint, geo.Planes()),
	}
	f.table = make(flash.PPNMap, f.capacity)
	name := cfg.GCPolicy
	if name == "" {
		name = gc.DefaultPagePolicy
	}
	policy, err := gc.ParsePolicy(name, geo.PagesPerBlock)
	if err != nil {
		return nil, err
	}
	style := gc.MoveExternalParity
	if cfg.Striped {
		style = gc.MoveCopyBack
	}
	f.engine = gc.NewEngine(gc.Config{
		Dev:           dev,
		Policy:        policy,
		Tracker:       f.tracker,
		Scheme:        hooks{f},
		PerPlane:      cfg.Striped,
		ProgressGuard: true,
		Style:         style,
		// Unlike DLOOP, the striped ideal always wastes on parity mismatch
		// (no low-space external fallback), so LowSpaceExternal stays false.
	})
	return f, nil
}

// Name implements ftl.FTL.
func (f *PureMap) Name() string {
	if f.cfg.Striped {
		return "PureMap-striped"
	}
	return "PureMap"
}

// Capacity implements ftl.FTL.
func (f *PureMap) Capacity() ftl.LPN { return f.capacity }

// Stats returns the ideal FTL's counters, derived from the GC engine.
func (f *PureMap) Stats() Stats {
	es := f.engine.Stats()
	return Stats{GCRuns: es.Runs, GCMoves: es.Moves, ParityWaste: es.ParityWaste}
}

// GCPolicyName reports the victim-selection policy in effect.
func (f *PureMap) GCPolicyName() string { return f.engine.PolicyName() }

// SetRecorder implements ftl.Observable. PureMap has no CMT, so only GC
// spans and parity-waste events flow.
func (f *PureMap) SetRecorder(r obs.Recorder) {
	f.rec = r
	f.engine.SetRecorder(r)
}

// Lookup returns the current physical page of lpn without side effects.
func (f *PureMap) Lookup(lpn ftl.LPN) flash.PPN {
	if ftl.CheckLPN(lpn, f.capacity) != nil {
		return flash.InvalidPPN
	}
	return f.table.Get(int64(lpn))
}

func (f *PureMap) planeFor(lpn ftl.LPN) int {
	if f.cfg.Striped {
		return int(int64(lpn) % int64(f.geo.Planes()))
	}
	return 0 // single global write point, stored in cur[pb.Plane] of its block
}

// ReadPage implements ftl.FTL. Translation is free: the table is in SRAM.
func (f *PureMap) ReadPage(lpn ftl.LPN, ready sim.Time) (sim.Time, error) {
	if err := ftl.CheckLPN(lpn, f.capacity); err != nil {
		return 0, err
	}
	ppn := f.table.Get(int64(lpn))
	if ppn == flash.InvalidPPN {
		return ready, nil
	}
	return f.dev.ReadPage(ppn, ready, flash.CauseHost)
}

// WritePage implements ftl.FTL.
func (f *PureMap) WritePage(lpn ftl.LPN, ready sim.Time) (sim.Time, error) {
	if err := ftl.CheckLPN(lpn, f.capacity); err != nil {
		return 0, err
	}
	t := ready
	var err error
	if f.engine.Idle(f.planeFor(lpn)) {
		t, err = f.engine.MaybeCollect(f.planeFor(lpn), t)
		if err != nil {
			return 0, err
		}
	}
	ppn, err := f.nextFreePage(f.planeFor(lpn))
	if err != nil {
		return 0, err
	}
	end, err := f.dev.WritePage(ppn, int64(lpn), t, flash.CauseHost)
	if err != nil {
		return 0, err
	}
	if old := f.table.Get(int64(lpn)); old != flash.InvalidPPN {
		if err := f.dev.Invalidate(old); err != nil {
			return 0, err
		}
		f.tracker.Invalidated(f.dev.BlockOf(old))
	}
	f.table.Set(int64(lpn), ppn)
	return end, nil
}

// nextFreePage advances a write point. In striped mode `wp` is the plane;
// unstriped mode uses a single global write point (slot 0) drawing from any
// plane in plane-major order.
func (f *PureMap) nextFreePage(wpIdx int) (flash.PPN, error) {
	wp := &f.cur[wpIdx]
	if wp.active && wp.next >= f.geo.PagesPerBlock {
		f.tracker.Close(wp.pb)
		wp.active = false
	}
	if !wp.active {
		var pb flash.PlaneBlock
		var ok bool
		if f.cfg.Striped {
			pb, ok = f.pool.TakeFromPlane(wpIdx)
		} else {
			pb, ok = f.pool.TakeAny()
		}
		if !ok {
			return flash.InvalidPPN, fmt.Errorf("pagemap: free blocks exhausted (capacity overcommitted)")
		}
		wp.pb, wp.next, wp.active = pb, 0, true
	}
	ppn := f.geo.PPNOf(wp.pb.Plane, wp.pb.Block, wp.next)
	wp.next++
	return ppn, nil
}

// destParity returns the in-block parity of the next page the plane's write
// point will hand out (a fresh block starts at even offset 0).
func (f *PureMap) destParity(plane int) int {
	wp := &f.cur[plane]
	if !wp.active || wp.next >= f.geo.PagesPerBlock {
		return 0
	}
	return wp.next % 2
}

func (f *PureMap) poolLow(plane int) bool {
	if f.cfg.Striped {
		return f.pool.InPlane(plane) < f.cfg.GCThreshold
	}
	return f.pool.Total() < f.cfg.GCThreshold
}

// freePages counts writable pages available to a write point's pool.
func (f *PureMap) freePages(plane int) int {
	var n int
	if f.cfg.Striped {
		n = f.pool.InPlane(plane) * f.geo.PagesPerBlock
		if wp := &f.cur[plane]; wp.active {
			n += f.geo.PagesPerBlock - wp.next
		}
	} else {
		n = f.pool.Total() * f.geo.PagesPerBlock
		if wp := &f.cur[0]; wp.active {
			n += f.geo.PagesPerBlock - wp.next
		}
	}
	return n
}

// hooks adapts PureMap's pools and write points to the GC engine's Scheme
// surface. Striped mode collects per plane with copy-back (always wasting on
// parity mismatch); unstriped mode collects globally with external moves.
type hooks struct{ f *PureMap }

func (h hooks) PoolLow(plane int) bool { return h.f.poolLow(plane) }

func (h hooks) FreePages(plane int) int { return h.f.freePages(plane) }

func (h hooks) DestParity(plane int) int { return h.f.destParity(plane) }

func (h hooks) NextDest(plane int, stored int64) (flash.PPN, error) {
	// Striped collections pass the victim's plane; unstriped ones pass 0,
	// which is exactly the global write point's slot.
	return h.f.nextFreePage(plane)
}

func (h hooks) Redirect(moved []ftl.Moved, at sim.Time) (sim.Time, error) {
	for _, mv := range moved {
		h.f.table.Set(mv.Stored, mv.New) // translation is free: the table is SRAM
	}
	return at, nil
}

func (h hooks) Release(victim flash.PlaneBlock) { h.f.pool.Put(victim) }
