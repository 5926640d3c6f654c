// Package pagemap implements the page-mapping FTL family: DLOOP (the paper's
// contribution, §III), the DFTL baseline (Gupta et al., ASPLOS'09) and two
// idealized all-in-SRAM maps, PureMap and PureMap-striped. They are one FTL;
// a Layout names the four choices they differ in, and Preset returns each
// scheme's.
//
// Placement. A striped layout follows equation (1): plane(LPN) = LPN mod
// #planes (through a StripeBy permutation), for first writes and — because
// the mapping is static — every update, so each plane keeps its own free
// pool, write point and collections, and garbage collection can relocate
// every valid page with an intra-plane copy-back that never occupies the
// chip serial bus or the channel. The same-parity restriction of that
// command is met by deliberately wasting a destination page on mismatch.
// Translation pages stripe the same way (tvpn mod #planes). A global layout
// is plane-oblivious, like DFTL: data pages append to one current block (and
// translation pages to another) drawn from one pool in plane-major order, so
// consecutive writes queue on one plane and the translation pages start out
// on plane 0 (§V.B/§V.D explain how both hurt DFTL); it collects the block
// with the most invalid pages device-wide.
//
// Translation. A demand-paged layout keeps hot mappings in an SRAM CMT and
// the full table in translation pages on flash, located through the GTD. The
// ideal table lives wholly in SRAM, so translation is free. No real
// controller can afford that RAM at SSD scale (§II.A), but the ideal bounds
// the others: the gap between PureMap and DFTL is the price of demand
// paging, and the gap between PureMap striped and unstriped isolates
// placement from mapping effects.
package pagemap

import (
	"fmt"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
	"dloop/internal/ftl/translate"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

// Layout is what the page-mapping schemes differ in.
type Layout struct {
	// StripeBy is the unit consecutive logical pages stripe over first
	// (equation (1) at StripePlane), with per-plane pools, write points and
	// collections. Empty selects a global append.
	StripeBy Striping
	// Moves is how garbage collection relocates valid pages.
	Moves gc.MoveStyle
	// LowSpaceExternal moves a wrong-parity page through the buses rather
	// than wasting a page on a plane short of free pages (see gc.Config).
	LowSpaceExternal bool
	// DemandPaged keeps the mapping table in translation pages behind an
	// SRAM cache; otherwise the whole table is in SRAM and translation free.
	DemandPaged bool
}

// The four presets are the corners of (striped, demand-paged); Name tells
// them apart.
var presets = [...]Layout{
	{StripeBy: StripePlane, Moves: gc.MoveCopyBack, LowSpaceExternal: true, DemandPaged: true},
	{Moves: gc.MoveOffsetOrder, DemandPaged: true},
	{Moves: gc.MoveExternalParity},
	{StripeBy: StripePlane, Moves: gc.MoveCopyBack},
}

// Preset returns the layout of a page-mapping scheme: "DLOOP", "DFTL",
// "PureMap" or "PureMap-striped".
func Preset(name string) (Layout, bool) {
	for _, l := range presets {
		if l.Name() == name {
			return l, true
		}
	}
	return Layout{}, false
}

// Name returns the scheme a layout is a variant of.
func (l Layout) Name() string {
	switch {
	case l.DemandPaged && l.striped():
		return "DLOOP"
	case l.DemandPaged:
		return "DFTL"
	case l.striped():
		return "PureMap-striped"
	}
	return "PureMap"
}

func (l Layout) striped() bool { return l.StripeBy != "" }

// Config parameterizes a page-mapping FTL.
type Config struct {
	// Layout selects the scheme: a Preset, possibly adjusted.
	Layout Layout
	// CMTEntries is the SRAM mapping-cache capacity of a demand-paged layout
	// (default 4096).
	CMTEntries int
	// ExtraPerPlane is the number of over-provisioned blocks per plane,
	// excluded from the exported capacity (§III.C).
	ExtraPerPlane int
	// GCPolicy selects the garbage-collection victim policy (default
	// "greedy", the paper's max-invalid pick; see gc.ParsePolicy for the
	// alternatives).
	GCPolicy string
	// TranslatePolicy selects the address-translation policy of a
	// demand-paged layout (default "slru"; see translate.ParsePolicy).
	TranslatePolicy string
}

func (c *Config) setDefaults() {
	if c.CMTEntries == 0 {
		c.CMTEntries = 4096
	}
}

type writePoint struct {
	pb     flash.PlaneBlock
	next   int
	active bool
}

// FTL is a page-mapping FTL. Not safe for concurrent use.
type FTL struct {
	dev      *flash.Device
	geo      flash.Geometry
	cfg      Config
	capacity ftl.LPN

	mapper  *translate.Engine // demand-paged layouts
	table   flash.PPNMap      // the ideal SRAM table otherwise
	pool    *ftl.FreeBlocks
	tracker *ftl.Tracker
	// cur holds the write points: one per plane on a striped layout; DFTL's
	// data and translation logs; PureMap's one log.
	cur    []writePoint
	engine *gc.Engine // owns the collect loop and reentrancy guards

	perm []int // striping permutation: LPN mod planes -> plane; nil when global

	counts obs.Counts // incremented by the translation and GC engines
}

// New builds a page-mapping FTL over dev.
func New(dev *flash.Device, cfg Config) (*FTL, error) {
	cfg.setDefaults()
	geo := dev.Geometry()
	l := cfg.Layout
	if cfg.ExtraPerPlane < ftl.GCThreshold+1 {
		return nil, fmt.Errorf("pagemap: ExtraPerPlane %d must exceed the GC threshold %d",
			cfg.ExtraPerPlane, ftl.GCThreshold)
	}
	if cfg.ExtraPerPlane >= geo.BlocksPerPlane {
		return nil, fmt.Errorf("pagemap: ExtraPerPlane %d leaves no data blocks", cfg.ExtraPerPlane)
	}
	f := &FTL{
		dev:      dev,
		geo:      geo,
		cfg:      cfg,
		capacity: ftl.ExportedPages(geo, cfg.ExtraPerPlane),
	}
	switch {
	case l.striped():
		f.cur = make([]writePoint, geo.Planes())
	case l.DemandPaged: // DFTL appends translation pages to a log of their own
		f.cur = make([]writePoint, 2)
	default:
		f.cur = make([]writePoint, 1)
	}
	var err error
	if l.striped() {
		if f.perm, err = stripePermutation(geo, l.StripeBy); err != nil {
			return nil, err
		}
	}
	name := cfg.GCPolicy
	if name == "" {
		name = gc.DefaultPagePolicy
	}
	policy, err := gc.ParsePolicy(name, geo.PagesPerBlock)
	if err != nil {
		return nil, err
	}
	var tpol translate.Policy
	if l.DemandPaged {
		if tpol, err = translate.ParsePolicy(cfg.TranslatePolicy); err != nil {
			return nil, err
		}
	}
	// The columns come last, and a failure from here on releases those
	// made before it.
	if f.pool, err = ftl.NewFreeBlocks(geo); err != nil {
		return nil, err
	}
	if f.tracker, err = ftl.NewTracker(dev); err != nil {
		f.Release()
		return nil, err
	}
	if l.DemandPaged {
		// Striping puts same-plane logical neighbors #planes apart, so the
		// learned index trains one plane's progression at a time; a global
		// log appends consecutive LPNs to consecutive pages.
		stride := 1
		if l.striped() {
			stride = geo.Planes()
		}
		f.mapper, err = translate.NewEngine(translate.Config{
			Dev: dev, Placer: f, Tracker: f.tracker,
			Capacity: f.capacity, CMTEntries: cfg.CMTEntries, Policy: tpol,
			StrideHint: stride,
		}, &f.counts)
	} else {
		f.table, err = flash.NewColumn[uint32](int64(f.capacity))
	}
	if err != nil {
		f.Release()
		return nil, err
	}
	f.engine = gc.NewEngine(gc.Config{
		Dev:              dev,
		Policy:           policy,
		Tracker:          f.tracker,
		Scheme:           hooks{f},
		PerPlane:         l.striped(),
		Style:            l.Moves,
		LowSpaceExternal: l.LowSpaceExternal,
	}, &f.counts)
	return f, nil
}

// Name implements ftl.FTL.
func (f *FTL) Name() string { return f.cfg.Layout.Name() }

// Capacity implements ftl.FTL.
func (f *FTL) Capacity() ftl.LPN { return f.capacity }

// Counts implements ftl.FTL.
func (f *FTL) Counts() obs.Counts { return f.counts }

// Release implements ftl.FTL: it frees the mapping table, the free pool and
// the victim index.
func (f *FTL) Release() {
	if f.mapper != nil {
		f.mapper.Release()
	}
	flash.FreeColumn(f.table)
	f.table = nil
	if f.pool != nil {
		f.pool.Release()
	}
	if f.tracker != nil {
		f.tracker.Release()
	}
}

// GCPolicyName reports the victim-selection policy in effect.
func (f *FTL) GCPolicyName() string { return f.engine.PolicyName() }

// LearnedSegments reports the learned index's live segment count (0 unless
// the learned translation policy is active).
func (f *FTL) LearnedSegments() int {
	if f.mapper == nil {
		return 0
	}
	return f.mapper.LearnedSegments()
}

// SetRecorder implements ftl.Observable: GC spans and victims flow from the
// GC engine.
func (f *FTL) SetRecorder(r obs.Recorder) { f.engine.SetRecorder(r) }

// Lookup returns the current physical page of lpn without charging simulated
// time or perturbing the CMT; tests and consistency checks use it.
func (f *FTL) Lookup(lpn ftl.LPN) flash.PPN {
	if err := ftl.CheckLPN(lpn, f.capacity); err != nil {
		return flash.InvalidPPN
	}
	return f.ppn(lpn)
}

func (f *FTL) ppn(lpn ftl.LPN) flash.PPN {
	if f.mapper != nil {
		return f.mapper.PPN(lpn)
	}
	return f.table.Get(int64(lpn))
}

// ReadPage implements ftl.FTL.
func (f *FTL) ReadPage(lpn ftl.LPN, ready sim.Time) (sim.Time, error) {
	if err := ftl.CheckLPN(lpn, f.capacity); err != nil {
		return 0, err
	}
	t := ready
	if f.mapper != nil {
		var err error
		if t, err = f.mapper.Resolve(lpn, ready); err != nil {
			return 0, err
		}
	}
	ppn := f.ppn(lpn)
	if ppn == flash.InvalidPPN {
		return t, nil // never written: controller answers with zeros
	}
	return f.dev.ReadPage(ppn, t, flash.CauseHost)
}

// WritePage implements ftl.FTL.
func (f *FTL) WritePage(lpn ftl.LPN, ready sim.Time) (sim.Time, error) {
	if err := ftl.CheckLPN(lpn, f.capacity); err != nil {
		return 0, err
	}
	t := ready
	var err error
	if f.mapper != nil {
		if t, err = f.mapper.Resolve(lpn, ready); err != nil {
			return 0, err
		}
	}
	ppn, t, err := f.PlacePage(int64(lpn), t)
	if err != nil {
		return 0, err
	}
	end, err := f.dev.WritePage(ppn, int64(lpn), t, flash.CauseHost)
	if err != nil {
		return 0, err
	}
	if f.mapper != nil {
		if _, err := f.mapper.RecordWrite(lpn, ppn); err != nil {
			return 0, err
		}
	} else {
		if old := f.table.Get(int64(lpn)); old != flash.InvalidPPN {
			if err := f.dev.Invalidate(old); err != nil {
				return 0, err
			}
			f.tracker.Invalidated(f.dev.BlockOf(old))
		}
		f.table.Set(int64(lpn), ppn)
	}
	return end, nil
}

// slotFor returns the write point a stored tag (an LPN or an encoded
// translation-page number) appends to: its plane under equation (1) — or
// the analogous striping of translation pages — on a striped layout, the
// data or translation log on a global one.
func (f *FTL) slotFor(stored int64) int {
	trans := ftl.IsTrans(stored)
	if f.perm == nil {
		if trans {
			return 1
		}
		return 0
	}
	if trans {
		stored = ftl.DecodeTrans(stored)
	}
	return f.perm[stored%int64(f.geo.Planes())]
}

// PlacePage implements ftl.Placer: it appends the page to its write point,
// collecting garbage first if the write point's pool has dropped below
// threshold.
func (f *FTL) PlacePage(stored int64, ready sim.Time) (flash.PPN, sim.Time, error) {
	slot := f.slotFor(stored)
	unit := slot // the plane a striped layout collects
	if f.perm == nil {
		unit = 0
	}
	t := ready
	// Collections allocate destination pages directly and never place
	// through this path (GC mapping redirects are lazy), so the engine's
	// idle guard is pure defense against reentry.
	if f.engine.Idle(unit) {
		var err error
		t, err = f.engine.MaybeCollect(unit, t)
		if err != nil {
			return flash.InvalidPPN, 0, err
		}
	}
	ppn, err := f.nextFreePage(slot)
	if err != nil {
		return flash.InvalidPPN, 0, err
	}
	return ppn, t, nil
}

// freePages counts the writable pages available to a collection unit: whole
// free blocks in its pool plus the unwritten tails of its open blocks.
func (f *FTL) freePages(plane int) int {
	if f.perm != nil {
		n := f.pool.InPlane(plane) * f.geo.PagesPerBlock
		if wp := &f.cur[plane]; wp.active {
			n += f.geo.PagesPerBlock - wp.next
		}
		return n
	}
	n := f.pool.Total() * f.geo.PagesPerBlock
	for _, wp := range f.cur {
		if wp.active {
			n += f.geo.PagesPerBlock - wp.next
		}
	}
	return n
}

// nextFreePage advances a write point, opening a new free block — from its
// plane's pool, or plane-major from the global one — when the current one
// fills.
func (f *FTL) nextFreePage(slot int) (flash.PPN, error) {
	wp := &f.cur[slot]
	if wp.active && wp.next >= f.geo.PagesPerBlock {
		f.tracker.Close(wp.pb)
		wp.active = false
	}
	if !wp.active {
		var pb flash.PlaneBlock
		var ok bool
		if f.perm != nil {
			pb, ok = f.pool.TakeFromPlane(slot)
		} else {
			pb, ok = f.pool.TakeAny()
		}
		if !ok {
			return flash.InvalidPPN, fmt.Errorf("pagemap: %s write point %d exhausted (capacity overcommitted)", f.Name(), slot)
		}
		wp.pb, wp.next, wp.active = pb, 0, true
	}
	ppn := f.geo.PPNOf(wp.pb.Plane, wp.pb.Block, wp.next)
	wp.next++
	return ppn, nil
}

// hooks adapts the pools, threshold and write points to the GC engine's
// Scheme surface. The engine owns the collect loop (victim pick, moves in
// the layout's style, erase accounting, §III.C); the FTL supplies
// placement.
type hooks struct{ f *FTL }

func (h hooks) PoolLow(plane int) bool {
	if h.f.perm == nil {
		return h.f.pool.Total() < ftl.GCThreshold
	}
	return h.f.pool.InPlane(plane) < ftl.GCThreshold
}

func (h hooks) FreePages(plane int) int { return h.f.freePages(plane) }

// DestParity returns the in-block offset parity of the next page the
// plane's write point will hand out, mirroring nextFreePage's roll-over to a
// fresh block (whose first page is offset 0, even).
func (h hooks) DestParity(plane int) int {
	wp := &h.f.cur[plane]
	if !wp.active || wp.next >= h.f.geo.PagesPerBlock {
		return 0
	}
	return wp.next % 2
}

func (h hooks) NextDest(plane int, stored int64) (flash.PPN, error) {
	if h.f.perm == nil {
		plane = h.f.slotFor(stored) // the data or translation log
	}
	// Striping already put the victim's pages on its plane.
	return h.f.nextFreePage(plane)
}

func (h hooks) Redirect(moved []ftl.Moved, at sim.Time) (sim.Time, error) {
	if h.f.mapper != nil {
		return h.f.mapper.RedirectMoved(moved, at)
	}
	for _, mv := range moved {
		h.f.table.Set(mv.Stored, mv.New) // translation is free: the table is SRAM
	}
	return at, nil
}

func (h hooks) Release(victim flash.PlaneBlock) { h.f.pool.Put(victim) }
