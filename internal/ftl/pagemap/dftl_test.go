package pagemap

import (
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

func TestPlaneObliviousAllocation(t *testing.T) {
	f, dev := newPreset(t, "DFTL")
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
		if geo.BlockOf(ppn).Plane != 0 {
			t.Fatalf("lpn %d on plane %d, want 0", lpn, geo.BlockOf(ppn).Plane)
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
	f, dev := newTestFTL(t, Config{Layout: layout(t, "DFTL"), CMTEntries: 4})
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
		if geo.BlockOf(ppn).Plane != 0 {
			t.Fatalf("early translation page on plane %d, want 0 (plane-major allocation)", geo.BlockOf(ppn).Plane)
		}
	}
	if !found {
		t.Fatal("no translation pages persisted")
	}
}

func TestGCMovesAreExternal(t *testing.T) {
	f, dev := newPreset(t, "DFTL")
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
	if f.Counts()[obs.EvGCRun] == 0 {
		t.Fatal("GC never ran")
	}
	cb, ext := dev.Stats().GCMoves()
	if cb != 0 {
		t.Fatalf("DFTL used %d copy-backs", cb)
	}
	if ext == 0 {
		t.Fatal("no external GC moves")
	}
	if dev.Stats().WastedPages != 0 {
		t.Fatal("DFTL wasted pages; the parity rule should not apply")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	f, dev := newPreset(t, "DFTL")
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

func TestCMTMissCostsTranslationRead(t *testing.T) {
	f, dev := newTestFTL(t, Config{Layout: layout(t, "DFTL"), CMTEntries: 2})
	var at sim.Time
	// Persist mappings for several lpns.
	for lpn := ftl.LPN(0); lpn < 16; lpn++ {
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	reads0 := f.Counts()[obs.EvTransRead]
	// lpn 0 long evicted: resolving it must read its translation page.
	if _, err := f.ReadPage(0, at); err != nil {
		t.Fatal(err)
	}
	if got := f.Counts()[obs.EvTransRead]; got <= reads0 {
		t.Fatalf("no translation read on CMT miss (%d -> %d)", reads0, got)
	}
	_ = dev
}
