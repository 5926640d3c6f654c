package fast

import (
	"math/rand"
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

func testGeo() flash.Geometry {
	return flash.Geometry{
		Channels: 2, PackagesPerChannel: 1, ChipsPerPackage: 2,
		DiesPerChip: 1, PlanesPerDie: 2, BlocksPerPlane: 16,
		PagesPerBlock: 8, PageSize: 2048,
	}
}

// newTestFTL builds FAST over the test geometry with 4 extra blocks per
// plane; logBlocks, when non-zero, shrinks the derived log budget.
func newTestFTL(t *testing.T, logBlocks int) (*FAST, *flash.Device) {
	t.Helper()
	dev, err := flash.NewDevice(testGeo(), flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(dev, Config{ExtraPerPlane: 4})
	if err != nil {
		t.Fatal(err)
	}
	if logBlocks != 0 {
		f.logBlocks = logBlocks
	}
	return f, dev
}

func TestNewValidation(t *testing.T) {
	dev, _ := flash.NewDevice(testGeo(), flash.DefaultTiming())
	if _, err := New(dev, Config{ExtraPerPlane: 0}); err == nil {
		t.Error("zero extra accepted")
	}
	// Two planes with two extra blocks each cannot hold the minimum 4-block
	// log plus merge slack.
	small := testGeo()
	small.Channels, small.ChipsPerPackage = 1, 1
	sdev, _ := flash.NewDevice(small, flash.DefaultTiming())
	if _, err := New(sdev, Config{ExtraPerPlane: 2}); err == nil {
		t.Error("log exceeding extra accepted")
	}
}

func TestInPlaceFirstWrite(t *testing.T) {
	f, dev := newTestFTL(t, 0)
	geo := dev.Geometry()
	// First writes of one logical block land at their in-block offsets of a
	// single data block.
	var at sim.Time
	for off := 0; off < 8; off++ {
		end, err := f.WritePage(ftl.LPN(off), at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	db := geo.BlockOf(f.Lookup(0))
	for off := 0; off < 8; off++ {
		ppn := f.Lookup(ftl.LPN(off))
		if want := geo.FirstPPN(db) + flash.PPN(off); ppn != want {
			t.Fatalf("lpn %d at ppn %d, want %d (%v offset %d)", off, ppn, want, db, off)
		}
	}
	if f.LogBlocksInUse() != 0 {
		t.Fatal("first writes consumed log blocks")
	}
}

func TestUpdateGoesToLog(t *testing.T) {
	f, dev := newTestFTL(t, 0)
	geo := dev.Geometry()
	var at sim.Time
	at, err := f.WritePage(3, at) // in-place (offset 3)
	if err != nil {
		t.Fatal(err)
	}
	first := f.Lookup(3)
	at, err = f.WritePage(3, at) // update: RW log (offset != 0)
	if err != nil {
		t.Fatal(err)
	}
	cur := f.Lookup(3)
	if cur == first {
		t.Fatal("update did not relocate")
	}
	if dev.PageState(first) != flash.PageInvalid {
		t.Fatal("old version not invalidated")
	}
	if f.LogBlocksInUse() == 0 {
		t.Fatal("no log block in use after update")
	}
	_ = geo
}

func TestSwitchMergeOnSequentialRewrite(t *testing.T) {
	f, dev := newTestFTL(t, 0)
	var at sim.Time
	// Populate logical block 2 fully.
	for off := 0; off < 8; off++ {
		end, err := f.WritePage(ftl.LPN(2*8+off), at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	oldDB := f.dataBlock[2]
	// Rewrite it fully sequentially: offset 0 claims the SW log, the rest
	// append, and completion triggers a switch merge.
	for off := 0; off < 8; off++ {
		end, err := f.WritePage(ftl.LPN(2*8+off), at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	st := f.Counts()
	if st[obs.EvSwitchMerge] != 1 {
		t.Fatalf("SwitchMerges = %d, want 1", st[obs.EvSwitchMerge])
	}
	if st[obs.EvMergeCopy] != 0 {
		t.Fatalf("switch merge copied %d pages, want 0", st[obs.EvMergeCopy])
	}
	if f.dataBlock[2] == oldDB {
		t.Fatal("data block not switched")
	}
	if f.swLBN != -1 {
		t.Fatal("SW log not released")
	}
	// All 8 pages readable from the new data block.
	for off := 0; off < 8; off++ {
		if f.Lookup(ftl.LPN(2*8+off)) == flash.InvalidPPN {
			t.Fatalf("offset %d unmapped after switch merge", off)
		}
	}
	_ = dev
}

func TestPartialMergeOnInterruptedStream(t *testing.T) {
	f, _ := newTestFTL(t, 0)
	var at sim.Time
	// Populate logical blocks 1 and 2.
	for _, lbn := range []int64{1, 2} {
		for off := 0; off < 8; off++ {
			end, err := f.WritePage(ftl.LPN(lbn*8+int64(off)), at)
			if err != nil {
				t.Fatal(err)
			}
			at = end
		}
	}
	// Start a sequential rewrite of block 1 (offsets 0..3)...
	for off := 0; off < 4; off++ {
		end, err := f.WritePage(ftl.LPN(1*8+int64(off)), at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	// ...then start a new stream at block 2 offset 0: block 1's SW log must
	// partial-merge (copy offsets 4..7 from the data block).
	if _, err := f.WritePage(ftl.LPN(2*8), at); err != nil {
		t.Fatal(err)
	}
	st := f.Counts()
	if st[obs.EvPartialMerge] != 1 {
		t.Fatalf("PartialMerges = %d, want 1", st[obs.EvPartialMerge])
	}
	if st[obs.EvMergeCopy] != 4 {
		t.Fatalf("MergeCopies = %d, want 4", st[obs.EvMergeCopy])
	}
	// Every page of block 1 still readable.
	for off := 0; off < 8; off++ {
		if f.Lookup(ftl.LPN(1*8+int64(off))) == flash.InvalidPPN {
			t.Fatalf("offset %d unmapped after partial merge", off)
		}
	}
}

func TestFullMergeWhenLogExhausted(t *testing.T) {
	f, dev := newTestFTL(t, 4)
	var at sim.Time
	// Populate a spread of logical blocks.
	for lpn := ftl.LPN(0); lpn < 96; lpn++ {
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	// Random-ish non-zero-offset updates fill the RW log and force full
	// merges.
	for i := 0; i < 400; i++ {
		lpn := ftl.LPN((i*7)%96 | 1) // avoid offset 0
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	st := f.Counts()
	if st[obs.EvFullMerge] == 0 {
		t.Fatal("no full merges despite exhausted log")
	}
	if st[obs.EvMergeCopy] == 0 {
		t.Fatal("full merges copied nothing")
	}
	if f.LogBlocksInUse() > 4 {
		t.Fatalf("log over budget: %d", f.LogBlocksInUse())
	}
	// Device must never see copy-backs from FAST.
	if dev.Stats().CopyBacks() != 0 {
		t.Fatal("FAST used copy-back")
	}
	// All mappings still consistent.
	for lpn := ftl.LPN(0); lpn < 96; lpn++ {
		ppn := f.Lookup(lpn)
		if ppn == flash.InvalidPPN {
			t.Fatalf("lpn %d lost", lpn)
		}
		if dev.PageLPN(ppn) != int64(lpn) || dev.PageState(ppn) != flash.PageValid {
			t.Fatalf("lpn %d maps to wrong page", lpn)
		}
	}
}

func TestReadPaths(t *testing.T) {
	f, _ := newTestFTL(t, 0)
	// Unwritten: free.
	if end, err := f.ReadPage(50, 10); err != nil || end != 10 {
		t.Fatalf("unwritten read: %v %v", end, err)
	}
	at, err := f.WritePage(50, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Data-block read.
	end, err := f.ReadPage(50, at)
	if err != nil || end <= at {
		t.Fatalf("data read: %v %v", end, err)
	}
	// Log read after update.
	at, err = f.WritePage(50, end)
	if err != nil {
		t.Fatal(err)
	}
	if f.logPPN(50) == flash.InvalidPPN {
		t.Fatal("update not in log map")
	}
	if _, err := f.ReadPage(50, at); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsChecking(t *testing.T) {
	f, _ := newTestFTL(t, 0)
	if _, err := f.ReadPage(f.Capacity(), 0); err == nil {
		t.Error("read beyond capacity accepted")
	}
	if _, err := f.WritePage(-1, 0); err == nil {
		t.Error("negative write accepted")
	}
}

func TestCapacityMatchesOtherFTLs(t *testing.T) {
	f, dev := newTestFTL(t, 0)
	if got, want := f.Capacity(), ftl.ExportedPages(dev.Geometry(), 4); got != want {
		t.Fatalf("Capacity = %d, want %d", got, want)
	}
}

func TestDisturbedStreamConsolidates(t *testing.T) {
	f, _ := newTestFTL(t, 0)
	var at sim.Time
	// Populate logical blocks 1 and 2 (block 2 must exist so its offset-0
	// update below goes through the log path and displaces the SW log).
	for _, lbn := range []int64{1, 2} {
		for off := 0; off < 8; off++ {
			end, err := f.WritePage(ftl.LPN(lbn*8+int64(off)), at)
			if err != nil {
				t.Fatal(err)
			}
			at = end
		}
	}
	// Start a sequential rewrite (offsets 0..2) ...
	for off := 0; off < 3; off++ {
		end, err := f.WritePage(ftl.LPN(1*8+int64(off)), at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	// ... then disturb it: rewrite offset 1 (random update -> RW log, which
	// invalidates the SW copy, so the SW log is no longer a clean prefix).
	at, err := f.WritePage(ftl.LPN(1*8+1), at)
	if err != nil {
		t.Fatal(err)
	}
	// A new stream start forces mergeSW down the consolidation path.
	if _, err := f.WritePage(ftl.LPN(2*8), at); err != nil {
		t.Fatal(err)
	}
	st := f.Counts()
	if st[obs.EvFullMerge] == 0 {
		t.Fatalf("disturbed SW log should consolidate (full merge), got %+v", st)
	}
	// All of block 1 still readable.
	for off := 0; off < 8; off++ {
		if f.Lookup(ftl.LPN(1*8+int64(off))) == flash.InvalidPPN {
			t.Fatalf("offset %d unmapped after consolidation", off)
		}
	}
}

func TestSWLogFullySupersededIsJustErased(t *testing.T) {
	f, dev := newTestFTL(t, 6)
	var at sim.Time
	// Populate logical block 1, start its SW stream (offsets 0..1).
	for off := 0; off < 8; off++ {
		end, err := f.WritePage(ftl.LPN(1*8+int64(off)), at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	for off := 0; off < 2; off++ {
		end, err := f.WritePage(ftl.LPN(1*8+int64(off)), at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	// Supersede both SW pages via RW-log updates (non-sequential offsets
	// first so they land in the RW log, then offsets 1 and... offset 0 would
	// claim the SW log; use a full merge trigger instead).
	// Rewrite offset 1 (RW) then offset 0 is unavailable without restarting
	// the stream, so: disturb via offset 1, then supersede offset 0 through
	// a consolidation triggered by filling the RW log for this block.
	at, err := f.WritePage(ftl.LPN(1*8+1), at) // supersedes SW copy of off 1
	if err != nil {
		t.Fatal(err)
	}
	// Consolidate lbn 1 directly: its SW block now holds one valid page
	// (off 0) and one invalid page (off 1).
	at, err = f.consolidate(1, at)
	if err != nil {
		t.Fatal(err)
	}
	// The SW block is now fully superseded; mergeSW must take the erase-only
	// path (no copies).
	copiesBefore := f.Counts()[obs.EvMergeCopy]
	if _, err := f.mergeSW(at); err != nil {
		t.Fatal(err)
	}
	if got := f.Counts()[obs.EvMergeCopy]; got != copiesBefore {
		t.Fatalf("erase-only path copied %d pages", got-copiesBefore)
	}
	if f.swLBN != -1 {
		t.Fatal("SW log not released")
	}
	// Everything still readable and consistent.
	for off := 0; off < 8; off++ {
		lpn := ftl.LPN(1*8 + int64(off))
		ppn := f.Lookup(lpn)
		if ppn == flash.InvalidPPN || dev.PageLPN(ppn) != int64(lpn) {
			t.Fatalf("offset %d inconsistent after erase-only merge", off)
		}
	}
}

// TestMergesAllocFree pins the merge paths at zero allocations per write at
// steady state: random single-page updates force partial and full merges,
// whose victim-candidate list is scratch the FTL keeps.
func TestMergesAllocFree(t *testing.T) {
	f, _ := newTestFTL(t, 0)
	rng := rand.New(rand.NewSource(1))
	var at sim.Time
	batch := func() {
		for i := 0; i < 200; i++ {
			end, err := f.WritePage(ftl.LPN(rng.Int63n(int64(f.Capacity()))), at)
			if err != nil {
				t.Fatal(err)
			}
			at = end
		}
	}
	batch() // reach steady state: log budget in use, scratch and timeline windows at capacity
	batch()
	before := f.Counts()[obs.EvFullMerge]
	if avg := testing.AllocsPerRun(10, batch); avg > 0 {
		t.Fatalf("write path allocates %.1f times per 200 writes, want 0", avg)
	}
	if f.Counts()[obs.EvFullMerge] == before {
		t.Fatal("no full merge ran in the measured batches")
	}
}
