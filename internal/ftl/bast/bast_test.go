package bast

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

func newTestFTL(t *testing.T, cfg Config) (*BAST, *flash.Device) {
	t.Helper()
	dev, err := flash.NewDevice(testGeo(), flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ExtraPerPlane == 0 {
		cfg.ExtraPerPlane = 4
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
	if _, err := New(dev, Config{ExtraPerPlane: 1, LogBlocks: 100}); err == nil {
		t.Error("oversized log accepted")
	}
}

func TestDedicatedLogBlockPerLogicalBlock(t *testing.T) {
	f, _ := newTestFTL(t, Config{})
	var at sim.Time
	// Populate lbns 0 and 1 fully, then update both: each gets its own log.
	for lpn := ftl.LPN(0); lpn < 16; lpn++ {
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	for _, lpn := range []ftl.LPN{3, 11} {
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	if f.nLogs != 2 {
		t.Fatalf("logs = %d, want 2 (one per logical block)", f.nLogs)
	}
	if f.logs[0].pb == f.logs[1].pb {
		t.Fatal("logical blocks share a log block")
	}
}

func TestLogSupersedesWithinBlock(t *testing.T) {
	f, dev := newTestFTL(t, Config{})
	var at sim.Time
	for lpn := ftl.LPN(0); lpn < 8; lpn++ {
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	// Update offset 3 three times: the log holds all three, only the last
	// is valid.
	var last flash.PPN
	for i := 0; i < 3; i++ {
		end, err := f.WritePage(3, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
		last = f.Lookup(3)
	}
	if dev.PageState(last) != flash.PageValid || dev.PageLPN(last) != 3 {
		t.Fatal("latest log copy wrong")
	}
	lb := f.logs[0]
	if lb.next != 3 {
		t.Fatalf("log consumed %d pages, want 3", lb.next)
	}
	if dev.Block(lb.pb).Invalid != 2 {
		t.Fatalf("superseded log copies: %d invalid, want 2", dev.Block(lb.pb).Invalid)
	}
}

func TestSwitchMergeOnSequentialRewrite(t *testing.T) {
	f, _ := newTestFTL(t, Config{LogBlocks: 4})
	var at sim.Time
	for lpn := ftl.LPN(0); lpn < 8; lpn++ {
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	// Full in-order rewrite fills the dedicated log sequentially; the merge
	// (forced by the next write) switches it in for free.
	for lpn := ftl.LPN(0); lpn < 8; lpn++ {
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	// One more update to lbn 0 forces the merge of its full log.
	if _, err := f.WritePage(0, at); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.SwitchMerges != 1 {
		t.Fatalf("SwitchMerges = %d, want 1", st.SwitchMerges)
	}
	if st.MergeCopies != 0 {
		t.Fatalf("switch merge copied %d pages", st.MergeCopies)
	}
}

func TestFullMergeAndThrashing(t *testing.T) {
	f, dev := newTestFTL(t, Config{LogBlocks: 4})
	var at sim.Time
	// Populate 12 logical blocks.
	for lpn := ftl.LPN(0); lpn < 96; lpn++ {
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	// One random update per logical block, round-robin: each wants its own
	// log block, so the 4-log budget thrashes — BAST's classic failure.
	for i := 0; i < 48; i++ {
		lbn := int64(i % 12)
		lpn := ftl.LPN(lbn*8 + int64(i%7) + 1)
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	st := f.Stats()
	if st.FullMerges == 0 {
		t.Fatal("no full merges")
	}
	if st.Thrashes == 0 {
		t.Fatal("round-robin updates must thrash BAST's per-block logs")
	}
	if f.nLogs > 4 {
		t.Fatalf("log budget exceeded: %d", f.nLogs)
	}
	// Every one of those merges picked its victim from scratch the FTL keeps.
	if avg := testing.AllocsPerRun(100, func() { f.pickEvict() }); avg > 0 {
		t.Fatalf("pickEvict allocates %.1f times per pick, want 0", avg)
	}
	// Consistency.
	for lpn := ftl.LPN(0); lpn < 96; lpn++ {
		ppn := f.Lookup(lpn)
		if ppn == flash.InvalidPPN {
			t.Fatalf("lpn %d lost", lpn)
		}
		if dev.PageState(ppn) != flash.PageValid || dev.PageLPN(ppn) != int64(lpn) {
			t.Fatalf("lpn %d inconsistent", lpn)
		}
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
	if f.Lookup(f.Capacity()) != flash.InvalidPPN {
		t.Error("Lookup beyond capacity")
	}
}

func TestUnwrittenReadIsFree(t *testing.T) {
	f, _ := newTestFTL(t, Config{})
	if end, err := f.ReadPage(42, 7); err != nil || end != 7 {
		t.Fatalf("unwritten read: %v %v", end, err)
	}
}
