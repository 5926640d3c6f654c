package pagemap

import (
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
	"dloop/internal/obs"
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
	st := f.Counts()
	if st[obs.EvGCRun] == 0 {
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
	if f.Counts()[obs.EvGCRun] == 0 {
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

// TestParityWasteOnCraftedVictim crafts a block whose four valid pages all
// sit at even offsets and has greedy collect it by copy-back. Plane 0 gets
// every write (DLOOP stripes LPN l to plane l mod 8), and the CMT holds every
// LPN, so no translation page lands there. Collection starts only once the
// plane has taken all but two of its blocks, which takes PagesPerBlock+1
// more writes than the plane has LPNs: four of them invalidate the victim's
// odd offsets, and the other five rewrite cold LPNs of five different
// blocks, so every block but the victim holds at most one invalid page.
func TestParityWasteOnCraftedVictim(t *testing.T) {
	f, dev := newTestFTL(t, Config{Layout: layout(t, "DLOOP"), CMTEntries: 1024})
	geo := dev.Geometry()
	ppb := geo.PagesPerBlock
	planeLPNs := int(f.Capacity()) / geo.Planes()
	lpnAt := func(i int) ftl.LPN { return ftl.LPN(i * geo.Planes()) } // plane 0's i-th LPN
	var at sim.Time
	write := func(lpn ftl.LPN) {
		t.Helper()
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	for i := 0; i < planeLPNs; i++ {
		write(lpnAt(i))
		if i == ppb-1 { // the victim is full: invalidate its odd offsets
			for off := 1; off < ppb; off += 2 {
				write(lpnAt(off))
			}
		}
	}
	victim := geo.BlockOf(f.Lookup(lpnAt(0)))
	if v := dev.Block(victim); v.Valid != ppb/2 || v.Invalid != ppb/2 {
		t.Fatalf("victim holds %d valid and %d invalid pages, want %d of each", v.Valid, v.Invalid, ppb/2)
	}
	for k := 0; k < ppb/2+1; k++ {
		write(lpnAt(ppb + ppb*k)) // one cold LPN from each of five other blocks
	}
	if f.Counts()[obs.EvGCRun] != 0 {
		t.Fatal("collection ran before the crafted write")
	}

	// The copy-back rule: a move needs a destination offset of its source's
	// parity, every source is even, so each odd destination offset the
	// write point reaches before the last move is wasted; a full block
	// rolls over to a fresh one at offset 0.
	predicted := 0
	for wp, moves := f.cur[victim.Plane].next, 0; moves < ppb/2; wp++ {
		if wp == ppb {
			wp = 0
		}
		if wp%2 == 0 {
			moves++
		} else {
			predicted++
		}
	}
	before := dev.Stats()
	cb0, ext0 := before.GCMoves()
	write(lpnAt(ppb + 1)) // the plane is low: this placement collects
	after := dev.Stats()
	if dev.BlockErases()[geo.BlockIndex(victim)] != 1 {
		t.Fatal("the crafted victim was not collected")
	}
	if cb, ext := after.GCMoves(); cb-cb0 != int64(ppb/2) || ext != ext0 {
		t.Fatalf("collection made %d copy-backs and %d external moves, want %d and 0", cb-cb0, ext-ext0, ppb/2)
	}
	if got := after.WastedPages - before.WastedPages; got != int64(predicted) || predicted == 0 {
		t.Fatalf("collection wasted %d pages, the parity rule predicts %d", got, predicted)
	}
}
