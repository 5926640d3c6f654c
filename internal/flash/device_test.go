package flash

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"dloop/internal/sim"
)

func newTestDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(testGeometry(), DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTimingMatchesPaper(t *testing.T) {
	tm := DefaultTiming()
	// §III.A with 2 KB pages: transfer ≈ 50 µs, inter-plane copy ≈ 325 µs,
	// intra-plane copy-back = 225 µs, a ~30.7% saving.
	xfer := tm.Transfer(2048).Microseconds()
	if xfer < 50 || xfer > 52 {
		t.Errorf("2KB transfer = %.2f µs, want ≈51.2", xfer)
	}
	inter := tm.InterPlaneCopy(2048).Microseconds()
	if inter < 325 || inter > 330 {
		t.Errorf("inter-plane copy = %.2f µs, want ≈327", inter)
	}
	cb := tm.CopyBack().Microseconds()
	if cb != 225 {
		t.Errorf("copy-back = %.2f µs, want 225", cb)
	}
	saving := 1 - cb/inter
	if saving < 0.30 || saving > 0.32 {
		t.Errorf("copy-back saving = %.3f, want ≈0.307", saving)
	}
}

func TestWriteReadLifecycle(t *testing.T) {
	d := newTestDevice(t)
	g := d.Geometry()
	ppn := g.PPNOf(3, 2, 0)

	if _, err := d.ReadPage(ppn, 0, CauseHost); !errors.Is(err, ErrReadInvalid) {
		t.Fatalf("read of free page: got %v, want ErrReadInvalid", err)
	}
	end, err := d.WritePage(ppn, 42, 0, CauseHost)
	if err != nil {
		t.Fatal(err)
	}
	wantW := sim.Time(0).Add(d.Timing().ExternalWrite(g.PageSize))
	if end != wantW {
		t.Errorf("write completion %v, want %v", end, wantW)
	}
	if d.PageState(ppn) != PageValid || d.PageLPN(ppn) != 42 {
		t.Fatalf("page after write: state=%v lpn=%d", d.PageState(ppn), d.PageLPN(ppn))
	}
	if _, err := d.WritePage(ppn, 43, end, CauseHost); !errors.Is(err, ErrWriteNotFree) {
		t.Fatalf("overwrite: got %v, want ErrWriteNotFree (erase-before-write)", err)
	}
	rEnd, err := d.ReadPage(ppn, end, CauseHost)
	if err != nil {
		t.Fatal(err)
	}
	if got := rEnd.Sub(end); got != d.Timing().ExternalRead(g.PageSize) {
		t.Errorf("read latency %v, want %v", got, d.Timing().ExternalRead(g.PageSize))
	}
	bi := d.Block(PlaneBlock{3, 2})
	if bi != (BlockInfo{Valid: 1, NextWrite: 1}) {
		t.Errorf("block info %+v", bi)
	}
}

func TestInvalidateAndErase(t *testing.T) {
	d := newTestDevice(t)
	g := d.Geometry()
	pb := PlaneBlock{1, 1}
	var at sim.Time
	for p := 0; p < g.PagesPerBlock; p++ {
		var err error
		at, err = d.WritePage(g.PPNOf(1, 1, p), int64(p), at, CauseHost)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Erase(pb, at, CauseGC); !errors.Is(err, ErrEraseValid) {
		t.Fatalf("erase with valid pages: got %v, want ErrEraseValid", err)
	}
	for p := 0; p < g.PagesPerBlock; p++ {
		if err := d.Invalidate(g.PPNOf(1, 1, p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Invalidate(g.PPNOf(1, 1, 0)); err == nil {
		t.Fatal("double invalidate should fail")
	}
	end, err := d.Erase(pb, at, CauseGC)
	if err != nil {
		t.Fatal(err)
	}
	if got := end.Sub(at); got != d.Timing().BlockErase {
		t.Errorf("erase latency %v, want %v", got, d.Timing().BlockErase)
	}
	bi := d.Block(pb)
	if bi != (BlockInfo{}) {
		t.Errorf("block after erase: %+v", bi)
	}
	if n := d.BlockErases()[g.BlockIndex(pb)]; n != 1 {
		t.Errorf("block erased %d times, want 1", n)
	}
	for p := 0; p < g.PagesPerBlock; p++ {
		if d.PageState(g.PPNOf(1, 1, p)) != PageFree {
			t.Fatalf("page %d not free after erase", p)
		}
	}
	// Block is writable again.
	if _, err := d.WritePage(g.PPNOf(1, 1, 0), 99, end, CauseHost); err != nil {
		t.Fatal(err)
	}
}

func TestCopyBackRules(t *testing.T) {
	d := newTestDevice(t)
	g := d.Geometry()
	at, err := d.WritePage(g.PPNOf(0, 0, 0), 7, 0, CauseHost)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-plane rejected.
	if _, err := d.CopyBack(g.PPNOf(0, 0, 0), g.PPNOf(1, 0, 0), at, CauseGC); !errors.Is(err, ErrCrossPlane) {
		t.Fatalf("cross-plane copy-back: got %v, want ErrCrossPlane", err)
	}
	// Parity mismatch rejected (src page 0 even, dst page 1 odd).
	if _, err := d.CopyBack(g.PPNOf(0, 0, 0), g.PPNOf(0, 1, 1), at, CauseGC); !errors.Is(err, ErrParity) {
		t.Fatalf("parity mismatch: got %v, want ErrParity", err)
	}
	// Legal copy-back: same plane, both even offsets.
	dst := g.PPNOf(0, 1, 2)
	end, err := d.CopyBack(g.PPNOf(0, 0, 0), dst, at, CauseGC)
	if err != nil {
		t.Fatal(err)
	}
	if got := end.Sub(at); got != d.Timing().CopyBack() {
		t.Errorf("copy-back latency %v, want %v", got, d.Timing().CopyBack())
	}
	if d.PageState(g.PPNOf(0, 0, 0)) != PageInvalid {
		t.Error("source not invalidated")
	}
	if d.PageState(dst) != PageValid || d.PageLPN(dst) != 7 {
		t.Error("destination not valid with moved lpn")
	}
	// Copy-back must not touch buses.
	_, chipBus, channels := d.BusyTimes()
	busBusy := chipBus[0] + channels[0]
	wantBus := d.Timing().Transfer(g.PageSize) * 2 // only the initial write's transfer (chip+channel)
	if busBusy != wantBus {
		t.Errorf("bus busy %v, want %v (copy-back must bypass buses)", busBusy, wantBus)
	}
}

func TestWastePage(t *testing.T) {
	d := newTestDevice(t)
	g := d.Geometry()
	ppn := g.PPNOf(2, 0, 0)
	if err := d.WastePage(ppn); err != nil {
		t.Fatal(err)
	}
	if d.PageState(ppn) != PageInvalid {
		t.Fatal("wasted page should be invalid")
	}
	if err := d.WastePage(ppn); err == nil {
		t.Fatal("wasting a non-free page should fail")
	}
	bi := d.Block(PlaneBlock{2, 0})
	if bi != (BlockInfo{Invalid: 1, NextWrite: 1}) {
		t.Errorf("block after waste: %+v", bi)
	}
	if d.Stats().WastedPages != 1 {
		t.Errorf("WastedPages = %d, want 1", d.Stats().WastedPages)
	}
}

func TestPlaneParallelismAndBusContention(t *testing.T) {
	g := testGeometry()
	d, err := NewDevice(g, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	tm := d.Timing()
	xfer := tm.Transfer(g.PageSize)

	// Two writes to planes on different channels at t=0: fully parallel.
	e1, err := d.WritePage(g.PPNOf(0, 0, 0), 1, 0, CauseHost)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := d.WritePage(g.PPNOf(8, 0, 0), 2, 0, CauseHost)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Errorf("cross-channel writes should complete together: %v vs %v", e1, e2)
	}

	// Two writes to different planes on the SAME chip: transfers serialize on
	// the chip bus, programs overlap.
	d2, _ := NewDevice(g, DefaultTiming())
	f1, err := d2.WritePage(g.PPNOf(0, 0, 0), 1, 0, CauseHost)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := d2.WritePage(g.PPNOf(1, 0, 0), 2, 0, CauseHost)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != sim.Time(0).Add(xfer+tm.PageProgram) {
		t.Errorf("first write ends %v", f1)
	}
	want2 := sim.Time(0).Add(2*xfer + tm.PageProgram)
	if f2 != want2 {
		t.Errorf("second write on shared bus ends %v, want %v", f2, want2)
	}

	// Same plane: fully serial.
	d3, _ := NewDevice(g, DefaultTiming())
	h1, _ := d3.WritePage(g.PPNOf(0, 0, 0), 1, 0, CauseHost)
	h2, err := d3.WritePage(g.PPNOf(0, 0, 1), 2, 0, CauseHost)
	if err != nil {
		t.Fatal(err)
	}
	if h2 <= h1 || h2 != h1.Add(xfer+tm.PageProgram) {
		t.Errorf("same-plane writes: %v then %v, want serial", h1, h2)
	}
}

func TestStatsAttribution(t *testing.T) {
	d := newTestDevice(t)
	g := d.Geometry()
	at, _ := d.WritePage(g.PPNOf(0, 0, 0), 1, 0, CauseHost)
	at, _ = d.WritePage(g.PPNOf(0, 0, 1), 2, at, CauseMap)
	at, _ = d.ReadPage(g.PPNOf(0, 0, 0), at, CauseHost)
	at, _ = d.CopyBack(g.PPNOf(0, 0, 1), g.PPNOf(0, 1, 1), at, CauseGC)
	_ = d.Invalidate(g.PPNOf(0, 0, 0))
	if _, err := d.Erase(PlaneBlock{0, 0}, at, CauseGC); err != nil {
		t.Fatal(err)
	}

	s := d.Stats()
	if s.Reads() != 1 || s.Writes() != 2 || s.CopyBacks() != 1 || s.Erases() != 1 {
		t.Fatalf("totals: r=%d w=%d cb=%d e=%d", s.Reads(), s.Writes(), s.CopyBacks(), s.Erases())
	}
	r, w, cb, e := s.ByCause(CauseHost)
	if r != 1 || w != 1 || cb != 0 || e != 0 {
		t.Errorf("host cause: %d %d %d %d", r, w, cb, e)
	}
	r, w, cb, e = s.ByCause(CauseGC)
	if r != 0 || w != 0 || cb != 1 || e != 1 {
		t.Errorf("gc cause: %d %d %d %d", r, w, cb, e)
	}
	totals := s.PlaneTotals()
	if totals[0] != 5 {
		t.Errorf("plane 0 ops = %d, want 5", totals[0])
	}
	cbGC, extGC := s.GCMoves()
	if cbGC != 1 || extGC != 0 {
		t.Errorf("GCMoves: %d %d", cbGC, extGC)
	}
	if n := d.BlockErases()[0]; n != 1 {
		t.Errorf("block 0 erases = %d, want 1", n)
	}
}

func TestResetStatsPreservesStateAndWear(t *testing.T) {
	d := newTestDevice(t)
	g := d.Geometry()
	at, _ := d.WritePage(g.PPNOf(0, 0, 0), 1, 0, CauseHost)
	_ = d.Invalidate(g.PPNOf(0, 0, 0))
	if _, err := d.Erase(PlaneBlock{0, 0}, at, CauseGC); err != nil {
		t.Fatal(err)
	}
	at2, _ := d.WritePage(g.PPNOf(0, 0, 0), 5, at, CauseHost)

	d.ResetStats()
	s := d.Stats()
	if s.Writes() != 0 || s.Erases() != 0 {
		t.Error("counters should be zero after reset")
	}
	if d.BlockErases()[0] != 1 {
		t.Error("wear counters must survive reset")
	}
	if d.PageState(g.PPNOf(0, 0, 0)) != PageValid {
		t.Error("page state must survive reset")
	}
	if d.PlaneFreeAt(0) != 0 {
		t.Error("resource timelines should rewind to zero")
	}
	_ = at2
}

// Property: under random legal operations, per-block accounting always
// matches a recount of page states, and Valid+Invalid == Written.
func TestDeviceAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testGeometry()
		d, err := NewDevice(g, DefaultTiming())
		if err != nil {
			return false
		}
		var at sim.Time
		for i := 0; i < 400; i++ {
			plane := rng.Intn(g.Planes())
			block := rng.Intn(g.BlocksPerPlane)
			page := rng.Intn(g.PagesPerBlock)
			ppn := g.PPNOf(plane, block, page)
			switch rng.Intn(4) {
			case 0:
				if end, err := d.WritePage(ppn, int64(i), at, CauseHost); err == nil {
					at = end
				}
			case 1:
				_ = d.Invalidate(ppn)
			case 2:
				pb := PlaneBlock{plane, block}
				if d.Block(pb).Valid == 0 {
					if end, err := d.Erase(pb, at, CauseGC); err == nil {
						at = end
					}
				}
			case 3:
				dst := g.PPNOf(plane, rng.Intn(g.BlocksPerPlane), page) // same parity by construction
				if end, err := d.CopyBack(ppn, dst, at, CauseGC); err == nil {
					at = end
				}
			}
		}
		// Recount.
		for plane := 0; plane < g.Planes(); plane++ {
			for block := 0; block < g.BlocksPerPlane; block++ {
				var want BlockInfo
				for page := 0; page < g.PagesPerBlock; page++ {
					switch d.PageState(g.PPNOf(plane, block, page)) {
					case PageValid:
						want.Valid++
					case PageInvalid:
						want.Invalid++
					default:
						continue
					}
					want.NextWrite = page + 1
				}
				if d.Block(PlaneBlock{plane, block}) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// PlaneFreeAt reports when the plane's cell array next becomes idle.
func (d *Device) PlaneFreeAt(plane int) sim.Time { return d.planes[plane].FreeAt() }
