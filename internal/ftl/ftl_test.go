package ftl

import (
	"testing"

	"dloop/internal/flash"
)

func testGeo() flash.Geometry {
	return flash.Geometry{
		Channels: 2, PackagesPerChannel: 1, ChipsPerPackage: 2,
		DiesPerChip: 1, PlanesPerDie: 2, BlocksPerPlane: 8,
		PagesPerBlock: 4, PageSize: 2048,
	}
}

func TestTransEncoding(t *testing.T) {
	for _, tvpn := range []int64{0, 1, 12345, 1 << 40} {
		stored := EncodeTrans(tvpn)
		if !IsTrans(stored) {
			t.Errorf("EncodeTrans(%d) not recognized", tvpn)
		}
		if got := DecodeTrans(stored); got != tvpn {
			t.Errorf("round trip %d -> %d", tvpn, got)
		}
	}
	for _, lpn := range []int64{0, 5, 1 << 40} {
		if IsTrans(lpn) {
			t.Errorf("data lpn %d classified as translation", lpn)
		}
	}
}

func TestCheckLPN(t *testing.T) {
	if err := CheckLPN(0, 10); err != nil {
		t.Error(err)
	}
	if err := CheckLPN(9, 10); err != nil {
		t.Error(err)
	}
	if err := CheckLPN(10, 10); err == nil {
		t.Error("lpn == capacity accepted")
	}
	if err := CheckLPN(-1, 10); err == nil {
		t.Error("negative lpn accepted")
	}
}

func TestExportedPages(t *testing.T) {
	g := testGeo() // 8 planes, 8 blocks, 4 pages
	if got := ExportedPages(g, 2); got != 8*6*4 {
		t.Fatalf("ExportedPages = %d, want %d", got, 8*6*4)
	}
}

func TestExtraBlocksPerPlane(t *testing.T) {
	// 3% of 2048 data blocks: extra = total*pct/(1+pct).
	got := ExtraBlocksPerPlane(2110, 0.03)
	if got < 61 || got > 63 {
		t.Errorf("3%% of ~2048: got %d, want ≈62", got)
	}
	// Tiny pools clamp to GCThreshold+1.
	if got := ExtraBlocksPerPlane(10, 0.01); got != 4 {
		t.Errorf("clamp: got %d, want 4", got)
	}
	// Never consumes the whole plane.
	if got := ExtraBlocksPerPlane(5, 0.99); got >= 5 {
		t.Errorf("overflow: got %d", got)
	}
}

func TestFreeBlocksPools(t *testing.T) {
	g := testGeo()
	f, err := NewFreeBlocks(g)
	if err != nil {
		t.Fatal(err)
	}
	if f.Total() != 8*8 {
		t.Fatalf("Total = %d", f.Total())
	}
	if f.InPlane(3) != 8 {
		t.Fatalf("InPlane(3) = %d", f.InPlane(3))
	}
	pb, ok := f.TakeFromPlane(3)
	if !ok || pb.Plane != 3 || pb.Block != 0 {
		t.Fatalf("TakeFromPlane: %v %v", pb, ok)
	}
	if f.InPlane(3) != 7 || f.Total() != 63 {
		t.Fatal("counts not updated")
	}
	// TakeAny is plane-major.
	pb, ok = f.TakeAny()
	if !ok || pb.Plane != 0 || pb.Block != 0 {
		t.Fatalf("TakeAny: %v", pb)
	}
	// Drain plane 0 and confirm TakeAny moves to plane 1.
	for i := 0; i < 7; i++ {
		if _, ok := f.TakeFromPlane(0); !ok {
			t.Fatal("drain failed")
		}
	}
	pb, _ = f.TakeAny()
	if pb.Plane != 1 {
		t.Fatalf("TakeAny after drain: plane %d, want 1", pb.Plane)
	}
	// Put returns blocks.
	f.Put(flash.PlaneBlock{Plane: 0, Block: 5})
	if f.InPlane(0) != 1 {
		t.Fatal("Put not reflected")
	}
	pb, ok = f.TakeFromPlane(0)
	if !ok || pb.Block != 5 {
		t.Fatalf("recycled block: %v", pb)
	}
	// Exhaustion.
	for f.Total() > 0 {
		if _, ok := f.TakeAny(); !ok {
			t.Fatal("TakeAny failed with blocks left")
		}
	}
	if _, ok := f.TakeAny(); ok {
		t.Fatal("TakeAny succeeded on empty pool")
	}
	if _, ok := f.TakeFromPlane(2); ok {
		t.Fatal("TakeFromPlane succeeded on empty pool")
	}
}

// newTrackedDevice returns a device of geo with every block fully written,
// and a tracker over it with no candidates.
func newTrackedDevice(tb testing.TB, geo flash.Geometry) (*flash.Device, *Tracker) {
	tb.Helper()
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		tb.Fatal(err)
	}
	for bi := int64(0); bi < geo.TotalBlocks(); bi++ {
		writeBlock(tb, dev, flash.PlaneBlock{Plane: int(bi) / geo.BlocksPerPlane, Block: int(bi) % geo.BlocksPerPlane})
	}
	tr, err := NewTracker(dev)
	if err != nil {
		tb.Fatal(err)
	}
	return dev, tr
}

// writeBlock programs every page of an erased block.
func writeBlock(tb testing.TB, dev *flash.Device, pb flash.PlaneBlock) {
	tb.Helper()
	first := dev.Geometry().FirstPPN(pb)
	for p := 0; p < dev.Geometry().PagesPerBlock; p++ {
		if _, err := dev.WritePage(first+flash.PPN(p), 0, 0, flash.CauseHost); err != nil {
			tb.Fatal(err)
		}
	}
}

// invalidate invalidates pb's lowest valid page on the device (these tests
// invalidate a block in offset order) and reports it to tr, as an FTL does.
func invalidate(tb testing.TB, dev *flash.Device, tr *Tracker, pb flash.PlaneBlock) {
	tb.Helper()
	if err := dev.Invalidate(dev.Geometry().FirstPPN(pb) + flash.PPN(dev.Block(pb).Invalid)); err != nil {
		tb.Fatal(err)
	}
	tr.Invalidated(pb)
}

// recycle invalidates pb's remaining pages, erases it and writes it again:
// what a collection of a non-candidate does to it, and a host refill.
func recycle(tb testing.TB, dev *flash.Device, tr *Tracker, pb flash.PlaneBlock) {
	tb.Helper()
	for dev.Block(pb).Valid > 0 {
		invalidate(tb, dev, tr, pb)
	}
	if _, err := dev.Erase(pb, 0, flash.CauseGC); err != nil {
		tb.Fatal(err)
	}
	writeBlock(tb, dev, pb)
}

func TestTrackerVictimSelection(t *testing.T) {
	dev, tr := newTrackedDevice(t, testGeo())

	// No candidates yet.
	if _, _, ok := tr.MaxInPlane(0); ok {
		t.Fatal("victim with no candidates")
	}
	if _, _, ok := tr.MaxGlobal(); ok {
		t.Fatal("global victim with no candidates")
	}

	b0 := flash.PlaneBlock{Plane: 0, Block: 0}
	b1 := flash.PlaneBlock{Plane: 0, Block: 1}
	b2 := flash.PlaneBlock{Plane: 1, Block: 0}

	invalidate(t, dev, tr, b0) // a page invalidated before Close counts
	tr.Close(b0)
	tr.Close(b1)
	tr.Close(b2)
	invalidate(t, dev, tr, b1)
	invalidate(t, dev, tr, b1)
	invalidate(t, dev, tr, b2)
	invalidate(t, dev, tr, b2)
	invalidate(t, dev, tr, b2)

	pb, inv, ok := tr.MaxInPlane(0)
	if !ok || pb != b1 || inv != 2 {
		t.Fatalf("MaxInPlane(0) = %v %d %v, want b1/2", pb, inv, ok)
	}
	pb, inv, ok = tr.MaxGlobal()
	if !ok || pb != b2 || inv != 3 {
		t.Fatalf("MaxGlobal = %v %d %v, want b2/3", pb, inv, ok)
	}

	// Take removes candidacy; the runner-up surfaces.
	tr.Take(b2)
	pb, _, ok = tr.MaxGlobal()
	if !ok || pb != b1 {
		t.Fatalf("after Take: %v, want b1", pb)
	}
	// A recycled block closes again under its new count.
	recycle(t, dev, tr, b2)
	tr.Close(b2)
	if pb, inv, ok = tr.MaxInPlane(1); ok {
		t.Fatalf("recycled block closed as victim %v with %d invalid pages", pb, inv)
	}

	// A block with zero invalid pages is never a victim.
	tr.Take(b1)
	tr.Take(b0)
	clean := flash.PlaneBlock{Plane: 1, Block: 2}
	tr.Close(clean)
	if _, _, ok := tr.MaxGlobal(); ok {
		t.Fatal("all-valid block chosen as victim")
	}
}

func TestTrackerPanicsOnMisuse(t *testing.T) {
	_, tr := newTrackedDevice(t, testGeo())
	b := flash.PlaneBlock{Plane: 0, Block: 0}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Take of non-candidate", func() { tr.Take(b) })
	tr.Close(b)
	mustPanic("double Close", func() { tr.Close(b) })
}

func TestTrackerDeterministicTieBreak(t *testing.T) {
	run := func() []flash.PlaneBlock {
		dev, tr := newTrackedDevice(t, testGeo())
		for b := 0; b < 4; b++ {
			pb := flash.PlaneBlock{Plane: 0, Block: b}
			tr.Close(pb)
			invalidate(t, dev, tr, pb)
		}
		var order []flash.PlaneBlock
		for {
			pb, _, ok := tr.MaxInPlane(0)
			if !ok {
				break
			}
			tr.Take(pb)
			order = append(order, pb)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != 4 {
		t.Fatalf("reclaimed %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("victim order not deterministic: %v vs %v", a, b)
		}
	}
}
