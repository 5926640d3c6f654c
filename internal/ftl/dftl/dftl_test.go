package dftl

import (
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/sim"
)

func testGeo() flash.Geometry {
	return flash.Geometry{
		Channels: 2, PackagesPerChannel: 1, ChipsPerPackage: 2,
		DiesPerChip: 1, PlanesPerDie: 2, BlocksPerPlane: 16,
		PagesPerBlock: 8, PageSize: 2048,
	}
}

func newTestFTL(t *testing.T, cfg Config) (*DFTL, *flash.Device) {
	t.Helper()
	dev, err := flash.NewDevice(testGeo(), flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ExtraPerPlane == 0 {
		cfg.ExtraPerPlane = 4
	}
	if cfg.CMTEntries == 0 {
		cfg.CMTEntries = 32
	}
	f, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, dev
}

func TestNewValidation(t *testing.T) {
	dev, _ := flash.NewDevice(testGeo(), flash.DefaultTiming())
	if _, err := New(dev, Config{ExtraPerPlane: 0}); err == nil {
		t.Error("zero extra accepted")
	}
	if _, err := New(dev, Config{ExtraPerPlane: 16}); err == nil {
		t.Error("extra consuming all blocks accepted")
	}
}

func TestPlaneObliviousAllocation(t *testing.T) {
	f, dev := newTestFTL(t, Config{})
	geo := dev.Geometry()
	// The first block's worth of data writes all land on plane 0 block-
	// sequentially: DFTL appends to one global current block.
	var at sim.Time
	for lpn := ftl.LPN(0); lpn < 8; lpn++ {
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
		ppn := f.Lookup(lpn)
		if geo.PlaneOf(ppn) != 0 {
			t.Fatalf("lpn %d on plane %d, want 0", lpn, geo.PlaneOf(ppn))
		}
	}
	// Consecutive writes on one plane serialize: total time ~ 8x a single
	// write rather than overlapping.
	single := dev.Timing().ExternalWrite(geo.PageSize)
	elapsed := at // all writes chained
	if elapsed < sim.Time(7*single) {
		t.Fatalf("8 sequential same-plane writes took %v, want >= 7x %v", elapsed, single)
	}
}

func TestTranslationPagesStartOnPlaneZero(t *testing.T) {
	f, dev := newTestFTL(t, Config{CMTEntries: 4})
	geo := dev.Geometry()
	var at sim.Time
	// Touch enough distinct lpns to force dirty evictions and translation-
	// page writes.
	for lpn := ftl.LPN(0); lpn < 512; lpn += 8 {
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	found := false
	for tvpn := 0; tvpn < f.mapper.TranslationPages(); tvpn++ {
		ppn := f.mapper.GTD.Get(int64(tvpn))
		if ppn == flash.InvalidPPN {
			continue
		}
		found = true
		if geo.PlaneOf(ppn) != 0 {
			t.Fatalf("early translation page on plane %d, want 0 (plane-major allocation)", geo.PlaneOf(ppn))
		}
	}
	if !found {
		t.Fatal("no translation pages persisted")
	}
}

func TestGCMovesAreExternal(t *testing.T) {
	f, dev := newTestFTL(t, Config{})
	var at sim.Time
	// Hot/cold mix across the device to leave valid pages in victims.
	for i := 0; i < 30000; i++ {
		lpn := ftl.LPN(i % 96)
		if i%8 == 0 {
			lpn = ftl.LPN(96 + i/8%600)
		}
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	if f.Stats().GCRuns == 0 {
		t.Fatal("GC never ran")
	}
	cb, ext := dev.Stats().GCMoves()
	if cb != 0 {
		t.Fatalf("DFTL used %d copy-backs", cb)
	}
	if ext == 0 {
		t.Fatal("no external GC moves")
	}
	if f.Stats().GCMoves != ext {
		t.Fatalf("GCMoves %d != device external moves %d", f.Stats().GCMoves, ext)
	}
	if dev.Stats().WastedPages != 0 {
		t.Fatal("DFTL wasted pages; the parity rule should not apply")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	f, dev := newTestFTL(t, Config{})
	end, err := f.WritePage(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Fatal("write cost no time")
	}
	ppn := f.Lookup(7)
	if ppn == flash.InvalidPPN || dev.PageLPN(ppn) != 7 {
		t.Fatal("mapping wrong after write")
	}
	rEnd, err := f.ReadPage(7, end)
	if err != nil {
		t.Fatal(err)
	}
	if rEnd <= end {
		t.Fatal("read cost no time")
	}
	// Unwritten read is free.
	if got, err := f.ReadPage(500, end); err != nil || got != end {
		t.Fatalf("unwritten read: %v %v", got, err)
	}
}

func TestBoundsChecking(t *testing.T) {
	f, _ := newTestFTL(t, Config{})
	if _, err := f.ReadPage(f.Capacity(), 0); err == nil {
		t.Error("read beyond capacity accepted")
	}
	if _, err := f.WritePage(-1, 0); err == nil {
		t.Error("negative write accepted")
	}
}

func TestCMTMissCostsTranslationRead(t *testing.T) {
	f, dev := newTestFTL(t, Config{CMTEntries: 2})
	var at sim.Time
	// Persist mappings for several lpns.
	for lpn := ftl.LPN(0); lpn < 16; lpn++ {
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	reads0 := f.Stats().MapperStats.TransReads
	// lpn 0 long evicted: resolving it must read its translation page.
	if _, err := f.ReadPage(0, at); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().MapperStats.TransReads; got <= reads0 {
		t.Fatalf("no translation read on CMT miss (%d -> %d)", reads0, got)
	}
	_ = dev
}
