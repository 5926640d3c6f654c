package gc

import (
	"fmt"
	"math/rand"
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

// pageFTL is the smallest scheme the engine can drive: a page table in SRAM,
// one write point per plane over the shared free-block pool, copy-back
// collection per plane with DLOOP's engine settings. It is DLOOP without the
// translation layer.
type pageFTL struct {
	dev     *flash.Device
	geo     flash.Geometry
	engine  *Engine
	tracker *ftl.Tracker
	pool    *ftl.FreeBlocks
	table   []flash.PPN
	cur     []flash.PlaneBlock // per plane: the open block
	next    []int              // per plane: its write point
	counts  obs.Counts
}

func newPageFTL(tb testing.TB, geo flash.Geometry, lpns int) *pageFTL {
	tb.Helper()
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		tb.Fatal(err)
	}
	tracker, err := ftl.NewTracker(dev)
	if err != nil {
		tb.Fatal(err)
	}
	pool, err := ftl.NewFreeBlocks(geo)
	if err != nil {
		tb.Fatal(err)
	}
	f := &pageFTL{
		dev: dev, geo: geo, tracker: tracker, pool: pool,
		table: make([]flash.PPN, lpns), cur: make([]flash.PlaneBlock, geo.Planes()), next: make([]int, geo.Planes()),
	}
	for i := range f.table {
		f.table[i] = flash.InvalidPPN
	}
	for p := range f.cur {
		f.cur[p], _ = f.pool.TakeFromPlane(p)
	}
	policy, err := ParsePolicy("greedy", geo.PagesPerBlock)
	if err != nil {
		tb.Fatal(err)
	}
	f.engine = NewEngine(Config{Dev: dev, Policy: policy, Tracker: f.tracker, Scheme: f, PerPlane: true, Style: MoveCopyBack,
		LowSpaceExternal: true}, &f.counts)
	return f
}

func (f *pageFTL) PoolLow(plane int) bool { return f.pool.InPlane(plane) < 4 }

func (f *pageFTL) FreePages(plane int) int {
	return (f.pool.InPlane(plane)+1)*f.geo.PagesPerBlock - f.next[plane]
}

func (f *pageFTL) DestParity(plane int) int { return f.next[plane] % f.geo.PagesPerBlock & 1 }

func (f *pageFTL) NextDest(plane int, _ int64) (flash.PPN, error) {
	if f.next[plane] == f.geo.PagesPerBlock {
		pb, ok := f.pool.TakeFromPlane(plane)
		if !ok {
			return flash.InvalidPPN, fmt.Errorf("plane %d exhausted", plane)
		}
		f.tracker.Close(f.cur[plane])
		f.cur[plane], f.next[plane] = pb, 0
	}
	f.next[plane]++
	return f.geo.FirstPPN(f.cur[plane]) + flash.PPN(f.next[plane]-1), nil
}

func (f *pageFTL) Redirect(moved []ftl.Moved, at sim.Time) (sim.Time, error) {
	for _, mv := range moved {
		f.table[mv.Stored] = mv.New
	}
	return at, nil
}

func (f *pageFTL) Release(victim flash.PlaneBlock) { f.pool.Put(victim) }

// write is the host update path: collect if the plane is low, program the
// next page, supersede the old copy.
func (f *pageFTL) write(tb testing.TB, lpn int, ready sim.Time) sim.Time {
	plane := lpn % f.geo.Planes()
	t, err := f.engine.MaybeCollect(plane, ready)
	if err != nil {
		tb.Fatal(err)
	}
	dst, err := f.NextDest(plane, int64(lpn))
	if err != nil {
		tb.Fatal(err)
	}
	if t, err = f.dev.WritePage(dst, int64(lpn), t, flash.CauseHost); err != nil {
		tb.Fatal(err)
	}
	if old := f.table[lpn]; old != flash.InvalidPPN {
		if err := f.dev.Invalidate(old); err != nil {
			tb.Fatal(err)
		}
		f.tracker.Invalidated(f.dev.BlockOf(old))
	}
	f.table[lpn] = dst
	return t
}

// newCollectingFTL returns a pageFTL on a two-plane device filled to fill
// (of its physical pages) and churned with uniform updates until every plane
// collects steadily.
func newCollectingFTL(tb testing.TB, fill float64, rng *rand.Rand) (*pageFTL, sim.Time) {
	geo := flash.Geometry{
		Channels: 1, PackagesPerChannel: 1, ChipsPerPackage: 1, DiesPerChip: 1,
		PlanesPerDie: 2, BlocksPerPlane: 48, PagesPerBlock: 64, PageSize: 2048,
	}
	f := newPageFTL(tb, geo, int(fill*float64(geo.TotalPages())))
	var at sim.Time
	for lpn := range f.table {
		at = f.write(tb, lpn, at)
	}
	for i := 0; i < 20*len(f.table); i++ {
		at = f.write(tb, rng.Intn(len(f.table)), at)
	}
	if f.counts[obs.EvGCRun] == 0 {
		tb.Fatal("warm-up never collected")
	}
	return f, at
}

// TestEngineCopyBackCollection drives the engine through sustained
// collection and checks what it leaves behind against the device: every
// logical page is where the table says, valid, and tagged; the engine ran
// one collection per erase and counted every copy-back and waste the device
// did; the parity rule held (the device would have refused) and wastes
// happened.
func TestEngineCopyBackCollection(t *testing.T) {
	f, _ := newCollectingFTL(t, 0.80, rand.New(rand.NewSource(5)))
	for lpn, ppn := range f.table {
		if f.dev.PageState(ppn) != flash.PageValid || f.dev.PageLPN(ppn) != int64(lpn) {
			t.Fatalf("lpn %d maps to ppn %d: state %v, tag %d", lpn, ppn, f.dev.PageState(ppn), f.dev.PageLPN(ppn))
		}
	}
	runs, dst := f.counts[obs.EvGCRun], f.dev.Stats()
	cb, _ := dst.GCMoves()
	if runs != dst.Erases() {
		t.Fatalf("engine counts %d runs; device erases %d", runs, dst.Erases())
	}
	if got := f.counts[obs.EvGCCopyBack]; got != cb {
		t.Fatalf("engine counts %d copy-backs; device did %d", got, cb)
	}
	if got := f.counts[obs.EvParityWaste]; got != dst.WastedPages {
		t.Fatalf("engine counts %d wasted pages; device wasted %d", got, dst.WastedPages)
	}
	if dst.WastedPages == 0 || cb < 10*runs {
		t.Fatalf("regime too light to mean anything: %d runs, %d copy-backs, %d wasted", runs, cb, dst.WastedPages)
	}
}

// BenchmarkCollectOnce measures one collection in gcheavy_dloop's regime —
// a victim with about 55 of 64 pages valid — together with the handful of
// host updates that make room for the next one. copybacks/op says how close
// to that regime the run was.
func BenchmarkCollectOnce(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	f, at := newCollectingFTL(b, 0.84, rng)
	before := f.counts[obs.EvGCRun]
	cbBefore, _ := f.dev.Stats().GCMoves()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for runs := f.counts[obs.EvGCRun]; f.counts[obs.EvGCRun] == runs; {
			at = f.write(b, rng.Intn(len(f.table)), at)
		}
	}
	b.StopTimer()
	after := f.counts[obs.EvGCRun]
	cbAfter, _ := f.dev.Stats().GCMoves()
	b.ReportMetric(float64(cbAfter-cbBefore)/float64(after-before), "copybacks/op")
}
