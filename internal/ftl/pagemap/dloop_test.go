package pagemap

import (
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
	"dloop/internal/sim"
)

func TestCapacityExcludesExtra(t *testing.T) {
	f, _ := newPreset(t, "DLOOP")
	// 8 planes x (16-4) blocks x 8 pages.
	if got := f.Capacity(); got != 8*12*8 {
		t.Fatalf("Capacity = %d, want %d", got, 8*12*8)
	}
}

func TestEquationOnePlacement(t *testing.T) {
	f, dev := newPreset(t, "DLOOP")
	geo := dev.Geometry()
	var at sim.Time
	for lpn := ftl.LPN(0); lpn < 64; lpn++ {
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
		ppn := f.Lookup(lpn)
		if want := int(int64(lpn) % int64(geo.Planes())); geo.BlockOf(ppn).Plane != want {
			t.Fatalf("lpn %d placed on plane %d, want %d", lpn, geo.BlockOf(ppn).Plane, want)
		}
	}
}

func TestUpdateStaysOnPlane(t *testing.T) {
	f, dev := newPreset(t, "DLOOP")
	geo := dev.Geometry()
	var at sim.Time
	end, err := f.WritePage(10, at)
	if err != nil {
		t.Fatal(err)
	}
	first := f.Lookup(10)
	for i := 0; i < 20; i++ {
		end, err = f.WritePage(10, end)
		if err != nil {
			t.Fatal(err)
		}
	}
	cur := f.Lookup(10)
	if cur == first {
		t.Fatal("update did not relocate the page")
	}
	if geo.BlockOf(cur).Plane != geo.BlockOf(first).Plane {
		t.Fatal("update left the original plane")
	}
	if dev.PageState(first) != flash.PageInvalid {
		t.Fatal("original page not invalidated")
	}
}

func TestSequentialWritesStripeAcrossPlanes(t *testing.T) {
	f, dev := newPreset(t, "DLOOP")
	// 8 sequential page writes at the same ready time land on 8 planes and
	// overlap: completion far below 8x a single write.
	var latest sim.Time
	for lpn := ftl.LPN(0); lpn < 8; lpn++ {
		end, err := f.WritePage(lpn, 0)
		if err != nil {
			t.Fatal(err)
		}
		if end > latest {
			latest = end
		}
	}
	single := dev.Timing().ExternalWrite(dev.Geometry().PageSize)
	if latest >= sim.Time(4*single) {
		t.Fatalf("8 striped writes finished at %v, want < 4x single %v", latest, single)
	}
}

func TestGCUsesCopyBackOnly(t *testing.T) {
	f, dev := newPreset(t, "DLOOP")
	var at sim.Time
	// Mix hot updates with occasional cold writes on one plane: blocks fill
	// with mostly-hot pages plus a valid cold page, so GC victims still
	// hold valid pages that must be relocated.
	for i := 0; i < 4000; i++ {
		lpn := ftl.LPN((i % 12) * 8) // plane 0 hot set
		if i%8 == 0 {
			lpn = ftl.LPN((12 + i/8%78) * 8) // plane 0 cold rotation
		}
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	st := f.Stats()
	if st.GCRuns == 0 {
		t.Fatal("GC never ran")
	}
	cb, ext := dev.Stats().GCMoves()
	if cb == 0 {
		t.Fatal("no copy-backs")
	}
	if ext > cb/5 {
		t.Fatalf("external moves %d not dominated by copy-backs %d", ext, cb)
	}
}

func TestTranslationPagesStriped(t *testing.T) {
	f, dev := newTestFTL(t, Config{Layout: layout(t, "DLOOP"), CMTEntries: 4})
	geo := dev.Geometry()
	// Touch many distinct lpns so dirty evictions persist several
	// translation pages; with 256 entries/page and 768 lpns there are 3
	// tvpns, which must land on planes 0, 1, 2.
	var at sim.Time
	for lpn := ftl.LPN(0); lpn < f.Capacity(); lpn += 8 {
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	found := 0
	for tvpn := 0; tvpn < f.mapper.TranslationPages(); tvpn++ {
		ppn := f.mapper.GTD.Get(int64(tvpn))
		if ppn == flash.InvalidPPN {
			continue
		}
		found++
		if want := tvpn % geo.Planes(); geo.BlockOf(ppn).Plane != want {
			t.Fatalf("tvpn %d on plane %d, want %d", tvpn, geo.BlockOf(ppn).Plane, want)
		}
	}
	if found == 0 {
		t.Fatal("no translation pages persisted")
	}
}

func TestAblationUsesExternalMovesOnly(t *testing.T) {
	l := layout(t, "DLOOP")
	l.Moves = gc.MoveExternalParity // what DisableCopyBack selects
	f, dev := newTestFTL(t, Config{Layout: l})
	var at sim.Time
	for i := 0; i < 4000; i++ {
		lpn := ftl.LPN((i % 12) * 8)
		if i%8 == 0 {
			lpn = ftl.LPN((12 + i/8%78) * 8)
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
		t.Fatalf("ablation used %d copy-backs", cb)
	}
	if ext == 0 {
		t.Fatal("no external moves")
	}
	if dev.Stats().WastedPages != 0 {
		t.Fatal("parity waste without copy-back")
	}
}

func TestReadUnwrittenIsFree(t *testing.T) {
	f, _ := newPreset(t, "DLOOP")
	end, err := f.ReadPage(5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if end != 42 {
		t.Fatalf("unwritten read cost time: %v", end)
	}
}

func TestParityWasteOnCraftedVictim(t *testing.T) {
	f, dev := newPreset(t, "DLOOP")
	geo := dev.Geometry()
	// Build a victim block on plane 0 whose valid pages all have even
	// offsets: write 8 pages (fills block 0 exactly with lpns of plane 0),
	// then update the odd-offset ones so only evens stay valid.
	var at sim.Time
	lpns := make([]ftl.LPN, 8)
	for i := range lpns {
		lpns[i] = ftl.LPN(i * 8) // all plane 0
		end, err := f.WritePage(lpns[i], at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	victim := geo.BlockOf(f.Lookup(lpns[0]))
	for i := 1; i < 8; i += 2 { // invalidate odd offsets of that block
		end, err := f.WritePage(lpns[i], at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	if got := dev.Block(victim).Invalid; got != 4 {
		t.Fatalf("victim invalid = %d, want 4", got)
	}
	// Force GC until that block is collected.
	for i := 0; dev.Stats().BlockErases[geo.BlockIndex(victim)] == 0 && i < 5000; i++ {
		end, err := f.WritePage(lpns[(i%4)*2], at) // keep updating evens
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	st := dev.Stats()
	if st.WastedPages == 0 {
		t.Log("no parity waste observed; ordering absorbed all mismatches (acceptable)")
	}
	// Invariant either way: waste never exceeds moves.
	if cb, ext := st.GCMoves(); st.WastedPages > cb+ext {
		t.Fatalf("waste %d > moves %d", st.WastedPages, cb+ext)
	}
}
