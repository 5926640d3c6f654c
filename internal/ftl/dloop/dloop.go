// Package dloop implements the paper's contribution: DLOOP (Data Log On One
// Plane), an optimized page-mapping FTL that exploits plane-level
// parallelism (§III).
//
// Placement follows equation (1): plane(LPN) = LPN mod #planes, for first
// writes and — because the mapping is static — for every subsequent update,
// so a logical page's log always lands on the plane that holds its original.
// Garbage collection can therefore relocate every valid page with an
// intra-plane copy-back that never occupies the chip serial bus or the
// channel, subject to the vendor's same-parity restriction, which DLOOP
// satisfies by deliberately wasting a destination page on parity mismatch.
// Translation pages are striped the same way (tvpn mod #planes), so
// mapping-lookup traffic is spread over all planes instead of piling onto
// plane 0 as DFTL's does.
package dloop

import (
	"fmt"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
	"dloop/internal/ftl/translate"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

// Config parameterizes DLOOP.
type Config struct {
	// CMTEntries is the SRAM mapping-cache capacity (default 4096).
	CMTEntries int
	// GCThreshold triggers per-plane garbage collection when the plane's
	// free-block pool drops below it (the paper uses 3).
	GCThreshold int
	// ExtraPerPlane is the number of over-provisioned blocks per plane,
	// excluded from the exported capacity (§III.C).
	ExtraPerPlane int
	// DisableCopyBack is the E5 ablation: garbage collection relocates valid
	// pages with external reads and writes through the bus (still within the
	// plane) instead of copy-back commands. The same-parity rule — a
	// restriction of the copy-back command only — then does not apply.
	DisableCopyBack bool
	// AdaptiveGC is the E7 extension (the paper's future work): planes that
	// absorb a larger share of the write traffic keep proportionally more
	// free blocks, collecting earlier to smooth their latency.
	AdaptiveGC bool
	// StripeBy selects the E8 ablation's striping policy (default
	// StripePlane, the paper's equation (1)).
	StripeBy Striping
	// GCPolicy selects the garbage-collection victim policy (default
	// "greedy", the paper's max-invalid pick; see gc.ParsePolicy for the
	// alternatives).
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
	if c.StripeBy == "" {
		c.StripeBy = StripePlane
	}
}

// Stats exposes DLOOP-specific counters beyond what the device records.
type Stats struct {
	GCRuns      int64 // garbage collections completed
	GCMoves     int64 // valid pages relocated by GC
	ParityWaste int64 // free pages wasted to satisfy the same-parity rule
	MapperStats translate.Stats
}

type writePoint struct {
	pb     flash.PlaneBlock
	next   int
	active bool
}

// DLOOP is the FTL. Not safe for concurrent use.
type DLOOP struct {
	dev      *flash.Device
	geo      flash.Geometry
	cfg      Config
	capacity ftl.LPN

	mapper  *translate.Engine
	pool    *ftl.FreeBlocks
	tracker *ftl.Tracker
	cur     []writePoint // per plane
	engine  *gc.Engine   // owns the collect loop and reentrancy guards

	perm []int // striping permutation: LPN mod planes -> plane

	planeWrites []int64 // host write pages per plane, drives AdaptiveGC
	totalWrites int64

	rec obs.Recorder // nil when observability is disabled
}

// New builds a DLOOP FTL over dev.
func New(dev *flash.Device, cfg Config) (*DLOOP, error) {
	cfg.setDefaults()
	geo := dev.Geometry()
	if cfg.ExtraPerPlane < cfg.GCThreshold+1 {
		return nil, fmt.Errorf("dloop: ExtraPerPlane %d must exceed GCThreshold %d",
			cfg.ExtraPerPlane, cfg.GCThreshold)
	}
	if cfg.ExtraPerPlane >= geo.BlocksPerPlane {
		return nil, fmt.Errorf("dloop: ExtraPerPlane %d leaves no data blocks", cfg.ExtraPerPlane)
	}
	f := &DLOOP{
		dev:         dev,
		geo:         geo,
		cfg:         cfg,
		capacity:    ftl.ExportedPages(geo, cfg.ExtraPerPlane),
		pool:        ftl.NewFreeBlocks(geo),
		tracker:     ftl.NewTracker(geo),
		cur:         make([]writePoint, geo.Planes()),
		planeWrites: make([]int64, geo.Planes()),
	}
	var err error
	f.perm, err = stripePermutation(geo, cfg.StripeBy)
	if err != nil {
		return nil, err
	}
	tpol, err := translate.ParsePolicy(cfg.TranslatePolicy)
	if err != nil {
		return nil, err
	}
	f.mapper, err = translate.NewEngine(translate.Config{
		Dev: dev, Placer: f, Tracker: f.tracker,
		Capacity: f.capacity, CMTEntries: cfg.CMTEntries, Policy: tpol,
		// Striping puts same-plane logical neighbors #planes apart, so the
		// learned index trains one plane's progression at a time.
		StrideHint: geo.Planes(),
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
	style := gc.MoveCopyBack
	if cfg.DisableCopyBack {
		style = gc.MoveExternalParity
	}
	f.engine = gc.NewEngine(gc.Config{
		Dev:              dev,
		Policy:           policy,
		Tracker:          f.tracker,
		Scheme:           hooks{f},
		PerPlane:         true,
		ProgressGuard:    true,
		Style:            style,
		LowSpaceExternal: true,
	})
	return f, nil
}

// Name implements ftl.FTL.
func (f *DLOOP) Name() string { return "DLOOP" }

// Capacity implements ftl.FTL.
func (f *DLOOP) Capacity() ftl.LPN { return f.capacity }

// Stats returns DLOOP's internal counters, derived from the GC engine and
// the shared mapper.
func (f *DLOOP) Stats() Stats {
	es := f.engine.Stats()
	return Stats{
		GCRuns:      es.Runs,
		GCMoves:     es.Moves,
		ParityWaste: es.ParityWaste,
		MapperStats: f.mapper.Stats(),
	}
}

// GCPolicyName reports the victim-selection policy in effect.
func (f *DLOOP) GCPolicyName() string { return f.engine.PolicyName() }

// TranslatePolicyName reports the address-translation policy in effect.
func (f *DLOOP) TranslatePolicyName() string { return f.mapper.Policy().String() }

// LearnedSegments reports the learned index's live segment count (0 unless
// the learned translation policy is active).
func (f *DLOOP) LearnedSegments() int { return f.mapper.LearnedSegments() }

// CMTHitRate reports the mapping-cache hit rate.
func (f *DLOOP) CMTHitRate() (float64, int64, int64) { return f.mapper.Cache.HitRate() }

// SetRecorder implements ftl.Observable: GC spans and parity-waste events
// flow from here, CMT events from the shared mapper.
func (f *DLOOP) SetRecorder(r obs.Recorder) {
	f.rec = r
	f.mapper.SetRecorder(r)
	f.engine.SetRecorder(r)
}

// planeFor applies equation (1) — through the striping permutation — to
// data pages and the analogous striping to translation pages.
func (f *DLOOP) planeFor(stored int64) int {
	if ftl.IsTrans(stored) {
		return f.perm[ftl.DecodeTrans(stored)%int64(f.geo.Planes())]
	}
	return f.perm[stored%int64(f.geo.Planes())]
}

// ReadPage implements ftl.FTL.
func (f *DLOOP) ReadPage(lpn ftl.LPN, ready sim.Time) (sim.Time, error) {
	if err := ftl.CheckLPN(lpn, f.capacity); err != nil {
		return 0, err
	}
	t, err := f.mapper.Resolve(lpn, ready)
	if err != nil {
		return 0, err
	}
	ppn := f.mapper.PPN(lpn)
	if ppn == flash.InvalidPPN {
		return t, nil // never written: controller answers with zeros
	}
	return f.dev.ReadPage(ppn, t, flash.CauseHost)
}

// WritePage implements ftl.FTL.
func (f *DLOOP) WritePage(lpn ftl.LPN, ready sim.Time) (sim.Time, error) {
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
	f.planeWrites[f.dev.PlaneOf(ppn)]++
	f.totalWrites++
	return end, nil
}

// PlacePage implements ftl.Placer: it stripes the page onto its plane's
// current free block, collecting garbage first if the plane's pool has
// dropped below threshold.
func (f *DLOOP) PlacePage(stored int64, ready sim.Time) (flash.PPN, sim.Time, error) {
	plane := f.planeFor(stored)
	t := ready
	// Collections allocate destination pages only on their own plane and
	// never place through this path (GC mapping redirects are lazy), so the
	// engine's idle guard is pure defense against reentry.
	if f.engine.Idle(plane) {
		var err error
		t, err = f.engine.MaybeCollect(plane, t)
		if err != nil {
			return flash.InvalidPPN, 0, err
		}
	}
	ppn, err := f.nextFreePage(plane)
	if err != nil {
		return flash.InvalidPPN, 0, err
	}
	return ppn, t, nil
}

// thresholdFor returns the plane's GC trigger level. With AdaptiveGC, planes
// carrying more than their fair share of writes keep up to 3x the base
// threshold in free blocks.
func (f *DLOOP) thresholdFor(plane int) int {
	base := f.cfg.GCThreshold
	if !f.cfg.AdaptiveGC || f.totalWrites == 0 {
		return base
	}
	share := float64(f.planeWrites[plane]) / float64(f.totalWrites) * float64(f.geo.Planes())
	thr := int(float64(base) * share)
	if thr < base {
		return base
	}
	if max := 3 * base; thr > max {
		return max
	}
	return thr
}

// freePages counts the plane's writable pages: whole free blocks in the
// pool plus the unwritten tail of the current free block.
func (f *DLOOP) freePages(plane int) int {
	n := f.pool.InPlane(plane) * f.geo.PagesPerBlock
	if wp := &f.cur[plane]; wp.active {
		n += f.geo.PagesPerBlock - wp.next
	}
	return n
}

// nextFreePage advances the plane's write point, opening a new free block
// when the current one fills.
func (f *DLOOP) nextFreePage(plane int) (flash.PPN, error) {
	wp := &f.cur[plane]
	if wp.active && wp.next >= f.geo.PagesPerBlock {
		f.tracker.Close(wp.pb)
		wp.active = false
	}
	if !wp.active {
		pb, ok := f.pool.TakeFromPlane(plane)
		if !ok {
			return flash.InvalidPPN, fmt.Errorf("dloop: plane %d exhausted (capacity overcommitted)", plane)
		}
		wp.pb, wp.next, wp.active = pb, 0, true
	}
	ppn := f.geo.PPNOf(plane, wp.pb.Block, wp.next)
	wp.next++
	return ppn, nil
}

// hooks adapts DLOOP's pools, thresholds, and write points to the GC
// engine's Scheme surface. The engine owns the collect loop (victim pick,
// copy-back moves with the parity-waste rule, erase accounting, §III.C);
// DLOOP supplies placement.
type hooks struct{ f *DLOOP }

func (h hooks) PoolLow(plane int) bool {
	return h.f.pool.InPlane(plane) < h.f.thresholdFor(plane)
}

func (h hooks) FreePages(plane int) int { return h.f.freePages(plane) }

func (h hooks) DestParity(plane int) int { return h.f.destParity(plane) }

func (h hooks) NextDest(plane int, stored int64) (flash.PPN, error) {
	return h.f.nextFreePage(plane) // striping already put the victim's pages here
}

func (h hooks) Redirect(moved []ftl.Moved, at sim.Time) (sim.Time, error) {
	return h.f.mapper.RedirectMoved(moved, at)
}

func (h hooks) Release(victim flash.PlaneBlock) { h.f.pool.Put(victim) }

// destParity returns the in-block offset parity of the next page the
// plane's write point will hand out, mirroring nextFreePage's roll-over to a
// fresh block (whose first page is offset 0, even).
func (f *DLOOP) destParity(plane int) int {
	wp := &f.cur[plane]
	if !wp.active || wp.next >= f.geo.PagesPerBlock {
		return 0
	}
	return wp.next % 2
}

// Lookup returns the current physical page of lpn without charging simulated
// time or perturbing the CMT; tests and consistency checks use it.
func (f *DLOOP) Lookup(lpn ftl.LPN) flash.PPN {
	if err := ftl.CheckLPN(lpn, f.capacity); err != nil {
		return flash.InvalidPPN
	}
	return f.mapper.PPN(lpn)
}

// NewRecovered builds a DLOOP FTL from an existing device's state by
// scanning the out-of-band page tags, the way a controller rebuilds its
// mapping after power loss. The CMT starts cold; partially-written blocks
// resume as their planes' write points.
func NewRecovered(dev *flash.Device, cfg Config) (*DLOOP, error) {
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
	// The mapper and the GC engine must work through the recovered tracker,
	// not the one New wired up.
	f.mapper.Retarget(f, st.Tracker)
	f.engine.Retarget(st.Tracker)
	for _, p := range st.Partial {
		wp := &f.cur[p.PB.Plane]
		if wp.active {
			return nil, fmt.Errorf("dloop: recovery found two partial blocks on plane %d", p.PB.Plane)
		}
		wp.pb, wp.next, wp.active = p.PB, p.NextWrite, true
	}
	return f, nil
}
