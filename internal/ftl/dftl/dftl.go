// Package dftl implements the DFTL baseline (Gupta et al., ASPLOS'09) at the
// fidelity the DLOOP paper compares against: a demand-paged page-mapping FTL
// whose hot mappings live in an SRAM CMT and whose full table lives in
// translation pages on flash, located through the GTD.
//
// DFTL is plane-oblivious. Data pages append to a single global current
// block and translation pages to another, both drawn from the free pool in
// plane-major order — so consecutive writes land on one plane and queue
// behind each other, and the translation pages start out concentrated in the
// first blocks of plane 0 (§V.B/§V.D of the DLOOP paper explains how both
// hurt it). Garbage collection picks the block with the most invalid pages
// device-wide and relocates valid pages with external reads and writes
// through the serial bus and channel — the 325 µs inter-plane copy of
// Fig. 2 — because plain DFTL does not use the copy-back command.
package dftl

import (
	"fmt"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
	"dloop/internal/ftl/translate"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

// Config parameterizes DFTL.
type Config struct {
	// CMTEntries is the SRAM mapping-cache capacity (default 4096).
	CMTEntries int
	// GCThreshold triggers garbage collection when the device-wide free pool
	// drops below it (kept at the paper's 3, scaled by nothing: DFTL pools
	// globally).
	GCThreshold int
	// ExtraPerPlane matches the over-provisioning given to the other FTLs so
	// every scheme exports the same capacity.
	ExtraPerPlane int
	// GCPolicy selects the garbage-collection victim policy (default
	// "greedy"; see gc.ParsePolicy for the alternatives).
	GCPolicy string
	// TranslatePolicy selects the address-translation policy (default
	// "slru"; see translate.ParsePolicy for the alternatives).
	TranslatePolicy string
}

func (c *Config) setDefaults() {
	if c.CMTEntries == 0 {
		c.CMTEntries = 4096
	}
	if c.GCThreshold == 0 {
		c.GCThreshold = 3
	}
}

// Stats exposes DFTL-specific counters.
type Stats struct {
	GCRuns      int64
	GCMoves     int64 // valid pages relocated by GC (all through the bus)
	MapperStats translate.Stats
}

type writePoint struct {
	pb     flash.PlaneBlock
	next   int
	active bool
}

// DFTL is the baseline FTL. Not safe for concurrent use.
type DFTL struct {
	dev      *flash.Device
	geo      flash.Geometry
	cfg      Config
	capacity ftl.LPN

	mapper  *translate.Engine
	pool    *ftl.FreeBlocks
	tracker *ftl.Tracker
	data    writePoint // global current data block
	trans   writePoint // global current translation block
	engine  *gc.Engine // owns the collect loop and reentrancy guards

	rec obs.Recorder // nil when observability is disabled
}

// New builds a DFTL baseline over dev.
func New(dev *flash.Device, cfg Config) (*DFTL, error) {
	cfg.setDefaults()
	geo := dev.Geometry()
	if cfg.ExtraPerPlane < 1 || cfg.ExtraPerPlane >= geo.BlocksPerPlane {
		return nil, fmt.Errorf("dftl: bad ExtraPerPlane %d", cfg.ExtraPerPlane)
	}
	f := &DFTL{
		dev:      dev,
		geo:      geo,
		cfg:      cfg,
		capacity: ftl.ExportedPages(geo, cfg.ExtraPerPlane),
		pool:     ftl.NewFreeBlocks(geo),
		tracker:  ftl.NewTracker(geo),
	}
	var err error
	tpol, err := translate.ParsePolicy(cfg.TranslatePolicy)
	if err != nil {
		return nil, err
	}
	f.mapper, err = translate.NewEngine(translate.Config{
		Dev: dev, Placer: f, Tracker: f.tracker,
		Capacity: f.capacity, CMTEntries: cfg.CMTEntries, Policy: tpol,
		// The global data log appends consecutive LPNs to consecutive pages,
		// so the learned index trains unit-stride progressions.
		StrideHint: 1,
	})
	if err != nil {
		return nil, err
	}
	name := cfg.GCPolicy
	if name == "" {
		name = gc.DefaultPagePolicy
	}
	policy, err := gc.ParsePolicy(name, geo.PagesPerBlock)
	if err != nil {
		return nil, err
	}
	f.engine = gc.NewEngine(gc.Config{
		Dev:     dev,
		Policy:  policy,
		Tracker: f.tracker,
		Scheme:  hooks{f},
		// Device-wide trigger and victim search, external moves in plain
		// offset order, no progress guard: plain DFTL's original loop.
		Style: gc.MoveOffsetOrder,
	})
	return f, nil
}

// Name implements ftl.FTL.
func (f *DFTL) Name() string { return "DFTL" }

// Capacity implements ftl.FTL.
func (f *DFTL) Capacity() ftl.LPN { return f.capacity }

// Stats returns DFTL's internal counters, derived from the GC engine and
// the shared mapper.
func (f *DFTL) Stats() Stats {
	es := f.engine.Stats()
	return Stats{
		GCRuns:      es.Runs,
		GCMoves:     es.Moves,
		MapperStats: f.mapper.Stats(),
	}
}

// GCPolicyName reports the victim-selection policy in effect.
func (f *DFTL) GCPolicyName() string { return f.engine.PolicyName() }

// TranslatePolicyName reports the address-translation policy in effect.
func (f *DFTL) TranslatePolicyName() string { return f.mapper.Policy().String() }

// LearnedSegments reports the learned index's live segment count (0 unless
// the learned translation policy is active).
func (f *DFTL) LearnedSegments() int { return f.mapper.LearnedSegments() }

// CMTHitRate reports the mapping-cache hit rate.
func (f *DFTL) CMTHitRate() (float64, int64, int64) { return f.mapper.Cache.HitRate() }

// SetRecorder implements ftl.Observable.
func (f *DFTL) SetRecorder(r obs.Recorder) {
	f.rec = r
	f.mapper.SetRecorder(r)
	f.engine.SetRecorder(r)
}

// ReadPage implements ftl.FTL.
func (f *DFTL) ReadPage(lpn ftl.LPN, ready sim.Time) (sim.Time, error) {
	if err := ftl.CheckLPN(lpn, f.capacity); err != nil {
		return 0, err
	}
	t, err := f.mapper.Resolve(lpn, ready)
	if err != nil {
		return 0, err
	}
	ppn := f.mapper.PPN(lpn)
	if ppn == flash.InvalidPPN {
		return t, nil
	}
	return f.dev.ReadPage(ppn, t, flash.CauseHost)
}

// WritePage implements ftl.FTL.
func (f *DFTL) WritePage(lpn ftl.LPN, ready sim.Time) (sim.Time, error) {
	if err := ftl.CheckLPN(lpn, f.capacity); err != nil {
		return 0, err
	}
	t, err := f.mapper.Resolve(lpn, ready)
	if err != nil {
		return 0, err
	}
	ppn, t, err := f.PlacePage(int64(lpn), t)
	if err != nil {
		return 0, err
	}
	end, err := f.dev.WritePage(ppn, int64(lpn), t, flash.CauseHost)
	if err != nil {
		return 0, err
	}
	if _, err := f.mapper.RecordWrite(lpn, ppn); err != nil {
		return 0, err
	}
	return end, nil
}

// PlacePage implements ftl.Placer: appends to the global data or translation
// write point, collecting garbage first if the device-wide pool is low.
func (f *DFTL) PlacePage(stored int64, ready sim.Time) (flash.PPN, sim.Time, error) {
	t := ready
	// Collections never place through this path (GC mapping redirects are
	// lazy), so the engine's idle guard is pure defense against reentry.
	if f.engine.Idle(0) {
		var err error
		t, err = f.engine.MaybeCollect(0, t)
		if err != nil {
			return flash.InvalidPPN, 0, err
		}
	}
	wp := &f.data
	if ftl.IsTrans(stored) {
		wp = &f.trans
	}
	ppn, err := f.nextFreePage(wp)
	if err != nil {
		return flash.InvalidPPN, 0, err
	}
	return ppn, t, nil
}

func (f *DFTL) nextFreePage(wp *writePoint) (flash.PPN, error) {
	if wp.active && wp.next >= f.geo.PagesPerBlock {
		f.tracker.Close(wp.pb)
		wp.active = false
	}
	if !wp.active {
		pb, ok := f.pool.TakeAny() // plane-major: DFTL's plane-oblivious allocation
		if !ok {
			return flash.InvalidPPN, fmt.Errorf("dftl: device exhausted (capacity overcommitted)")
		}
		wp.pb, wp.next, wp.active = pb, 0, true
	}
	ppn := f.geo.PPNOf(wp.pb.Plane, wp.pb.Block, wp.next)
	wp.next++
	return ppn, nil
}

// hooks adapts DFTL's global pool and twin write points to the GC engine's
// Scheme surface: relocated data pages append to the current data block,
// translation pages to the current translation block.
type hooks struct{ f *DFTL }

func (h hooks) PoolLow(plane int) bool { return h.f.pool.Total() < h.f.cfg.GCThreshold }

func (h hooks) FreePages(plane int) int {
	f := h.f
	n := f.pool.Total() * f.geo.PagesPerBlock
	for _, wp := range []*writePoint{&f.data, &f.trans} {
		if wp.active {
			n += f.geo.PagesPerBlock - wp.next
		}
	}
	return n
}

func (h hooks) DestParity(plane int) int { return 0 } // external moves only: parity never binds

func (h hooks) NextDest(plane int, stored int64) (flash.PPN, error) {
	wp := &h.f.data
	if ftl.IsTrans(stored) {
		wp = &h.f.trans
	}
	return h.f.nextFreePage(wp)
}

func (h hooks) Redirect(moved []ftl.Moved, at sim.Time) (sim.Time, error) {
	return h.f.mapper.RedirectMoved(moved, at)
}

func (h hooks) Release(victim flash.PlaneBlock) { h.f.pool.Put(victim) }

// Lookup returns the current physical page of lpn without charging simulated
// time or perturbing the CMT; tests and consistency checks use it.
func (f *DFTL) Lookup(lpn ftl.LPN) flash.PPN {
	if err := ftl.CheckLPN(lpn, f.capacity); err != nil {
		return flash.InvalidPPN
	}
	return f.mapper.PPN(lpn)
}

// NewRecovered builds a DFTL baseline from an existing device's state by
// scanning the out-of-band page tags after a simulated power loss. The CMT
// starts cold. DFTL keeps two write points (data and translation); recovery
// cannot tell from page state alone which partial block served which role,
// so it resumes the first partial block as the data point and the second as
// the translation point — both roles only append, so the assignment does
// not affect correctness.
func NewRecovered(dev *flash.Device, cfg Config) (*DFTL, error) {
	f, err := New(dev, cfg)
	if err != nil {
		return nil, err
	}
	st, err := ftl.ScanOOB(dev, f.capacity, f.mapper.TranslationPages())
	if err != nil {
		return nil, err
	}
	if err := f.mapper.AdoptState(st.Table, st.GTD); err != nil {
		return nil, err
	}
	f.pool = st.Pool
	f.tracker = st.Tracker
	f.mapper.Retarget(f, st.Tracker)
	f.engine.Retarget(st.Tracker)
	wps := []*writePoint{&f.data, &f.trans}
	if len(st.Partial) > len(wps) {
		return nil, fmt.Errorf("dftl: recovery found %d partial blocks, want at most %d", len(st.Partial), len(wps))
	}
	for i, p := range st.Partial {
		wps[i].pb, wps[i].next, wps[i].active = p.PB, p.NextWrite, true
	}
	return f, nil
}
