package pagemap

import (
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

// presetNames lists the four schemes, striped ones first.
var presetNames = []string{"DLOOP", "PureMap-striped", "DFTL", "PureMap"}

func testGeo() flash.Geometry {
	return flash.Geometry{
		Channels: 2, PackagesPerChannel: 1, ChipsPerPackage: 2,
		DiesPerChip: 1, PlanesPerDie: 2, BlocksPerPlane: 16,
		PagesPerBlock: 8, PageSize: 2048,
	}
}

func layout(t testing.TB, name string) Layout {
	t.Helper()
	l, ok := Preset(name)
	if !ok {
		t.Fatalf("no preset %q", name)
	}
	return l
}

func newTestDevice(t testing.TB) *flash.Device {
	t.Helper()
	dev, err := flash.NewDevice(testGeo(), flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// newTestFTL builds cfg over a fresh test device, with four extra blocks per
// plane and a 32-entry CMT unless cfg says otherwise.
func newTestFTL(t testing.TB, cfg Config) (*FTL, *flash.Device) {
	t.Helper()
	dev := newTestDevice(t)
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

// newPreset builds the named scheme's preset with newTestFTL's defaults.
func newPreset(t testing.TB, name string) (*FTL, *flash.Device) {
	t.Helper()
	return newTestFTL(t, Config{Layout: layout(t, name)})
}

func TestPresetNames(t *testing.T) {
	for _, name := range presetNames {
		f, _ := newPreset(t, name)
		if f.Name() != name {
			t.Errorf("preset %s builds an FTL named %s", name, f.Name())
		}
	}
	if _, ok := Preset("FAST"); ok {
		t.Error("FAST has a page-mapping preset")
	}
	// The ablations keep the scheme's name.
	l := layout(t, "DLOOP")
	l.Moves, l.StripeBy = gc.MoveExternalParity, StripeChannel
	if l.Name() != "DLOOP" {
		t.Errorf("ablated DLOOP named %s", l.Name())
	}
}

func TestNewValidation(t *testing.T) {
	for _, name := range presetNames {
		t.Run(name, func(t *testing.T) {
			dev := newTestDevice(t)
			l := layout(t, name)
			if _, err := New(dev, Config{Layout: l, ExtraPerPlane: 0}); err == nil {
				t.Error("zero extra accepted")
			}
			if _, err := New(dev, Config{Layout: l, ExtraPerPlane: 2}); err == nil {
				t.Error("extra <= threshold accepted")
			}
			if _, err := New(dev, Config{Layout: l, ExtraPerPlane: 16}); err == nil {
				t.Error("extra consuming all blocks accepted")
			}
			if _, err := New(dev, Config{Layout: l, ExtraPerPlane: 99}); err == nil {
				t.Error("oversized extra accepted")
			}
		})
	}
	l := layout(t, "DLOOP")
	l.StripeBy = "bogus"
	if _, err := New(newTestDevice(t), Config{Layout: l, ExtraPerPlane: 4}); err == nil {
		t.Error("bogus stripe unit accepted")
	}
}

func TestBoundsChecking(t *testing.T) {
	for _, name := range presetNames {
		t.Run(name, func(t *testing.T) {
			f, _ := newPreset(t, name)
			if _, err := f.ReadPage(f.Capacity(), 0); err == nil {
				t.Error("read beyond capacity accepted")
			}
			if _, err := f.WritePage(f.Capacity(), 0); err == nil {
				t.Error("write beyond capacity accepted")
			}
			if _, err := f.ReadPage(-1, 0); err == nil {
				t.Error("negative read accepted")
			}
			if _, err := f.WritePage(-1, 0); err == nil {
				t.Error("negative write accepted")
			}
			if f.Lookup(f.Capacity()) != flash.InvalidPPN {
				t.Error("Lookup beyond capacity")
			}
		})
	}
}

func TestTranslationIsFree(t *testing.T) {
	for _, name := range []string{"PureMap", "PureMap-striped"} {
		f, dev := newPreset(t, name)
		end, err := f.WritePage(10, 0)
		if err != nil {
			t.Fatal(err)
		}
		// A write costs exactly one external program: no translation traffic.
		want := sim.Time(0).Add(dev.Timing().ExternalWrite(dev.Geometry().PageSize))
		if end != want {
			t.Fatalf("%s: write cost %v, want %v", name, end, want)
		}
		rEnd, err := f.ReadPage(10, end)
		if err != nil {
			t.Fatal(err)
		}
		if got := rEnd.Sub(end); got != dev.Timing().ExternalRead(dev.Geometry().PageSize) {
			t.Fatalf("%s: read cost %v", name, got)
		}
		// Unwritten read is free.
		if got, err := f.ReadPage(500, end); err != nil || got != end {
			t.Fatalf("unwritten read: %v %v", got, err)
		}
	}
}

func TestStripedPlacementFollowsEquationOne(t *testing.T) {
	f, dev := newPreset(t, "PureMap-striped")
	geo := dev.Geometry()
	var at sim.Time
	for lpn := ftl.LPN(0); lpn < 64; lpn++ {
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
		if want := int(int64(lpn) % int64(geo.Planes())); geo.BlockOf(f.Lookup(lpn)).Plane != want {
			t.Fatalf("lpn %d on plane %d, want %d", lpn, geo.BlockOf(f.Lookup(lpn)).Plane, want)
		}
	}
}

func TestUnstripedAppendsPlaneMajor(t *testing.T) {
	f, dev := newPreset(t, "PureMap")
	geo := dev.Geometry()
	var at sim.Time
	for lpn := ftl.LPN(0); lpn < 8; lpn++ {
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
		if geo.BlockOf(f.Lookup(lpn)).Plane != 0 {
			t.Fatalf("lpn %d not on plane 0", lpn)
		}
	}
}

// hotColdWorkload writes n pages: a 96-page hot set, with every eighth write
// rotating through span cold pages after it.
func hotColdWorkload(t testing.TB, f *FTL, n, span int) sim.Time {
	t.Helper()
	var at sim.Time
	for i := 0; i < n; i++ {
		lpn := ftl.LPN(i % 96)
		if i%8 == 0 {
			lpn = ftl.LPN(96 + i/8%span)
		}
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	return at
}

// planeZeroWorkload writes n pages on plane 0 of the 8-plane test device: a
// 12-page hot set, with every eighth write rotating through 78 cold pages,
// so GC victims still hold valid pages that must be relocated.
func planeZeroWorkload(t *testing.T, f *FTL, n int) sim.Time {
	t.Helper()
	var at sim.Time
	for i := 0; i < n; i++ {
		lpn := ftl.LPN(i % 12 * 8)
		if i%8 == 0 {
			lpn = ftl.LPN((12 + i/8%78) * 8)
		}
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	return at
}

func TestStripedGCUsesCopyBack(t *testing.T) {
	f, dev := newPreset(t, "PureMap-striped")
	hotColdWorkload(t, f, 6000, 500)
	if f.Counts()[obs.EvGCRun] == 0 {
		t.Fatal("GC never ran")
	}
	cb, ext := dev.Stats().GCMoves()
	if cb == 0 || ext != 0 {
		t.Fatalf("striped moves cb=%d ext=%d, want all copy-back", cb, ext)
	}
}

func TestUnstripedGCUsesExternalMoves(t *testing.T) {
	f, dev := newPreset(t, "PureMap")
	hotColdWorkload(t, f, 6000, 500)
	if f.Counts()[obs.EvGCRun] == 0 {
		t.Fatal("GC never ran")
	}
	cb, ext := dev.Stats().GCMoves()
	if ext == 0 || cb != 0 {
		t.Fatalf("unstriped moves cb=%d ext=%d, want all external", cb, ext)
	}
	if dev.Stats().WastedPages != 0 {
		t.Fatal("unstriped mode wasted pages")
	}
}

// checkMapping asserts every mapped LPN points at a valid page tagged with it.
func checkMapping(t *testing.T, f *FTL, dev *flash.Device) {
	t.Helper()
	for lpn := ftl.LPN(0); lpn < f.Capacity(); lpn++ {
		ppn := f.Lookup(lpn)
		if ppn == flash.InvalidPPN {
			continue
		}
		if dev.PageState(ppn) != flash.PageValid || dev.PageLPN(ppn) != int64(lpn) {
			t.Fatalf("%s: lpn %d inconsistent", f.Name(), lpn)
		}
	}
}

func TestMappingConsistencyAfterGC(t *testing.T) {
	for _, name := range []string{"PureMap", "PureMap-striped"} {
		f, dev := newPreset(t, name)
		hotColdWorkload(t, f, 6000, 500)
		checkMapping(t, f, dev)
	}
}

// TestRecoveryRebuildsMapping simulates a power loss mid-workload: a fresh
// instance rebuilt from OOB tags must expose exactly the same mapping as the
// one that crashed, and must keep serving correctly.
func TestRecoveryRebuildsMapping(t *testing.T) {
	for _, name := range presetNames {
		t.Run(name, func(t *testing.T) {
			f, dev := newPreset(t, name)
			// Run a GC-heavy mix so the crash state includes invalid pages,
			// partial write points, and relocated translation pages: on one
			// plane when striped, device-wide otherwise.
			striped := f.perm != nil
			var at sim.Time
			if striped {
				at = planeZeroWorkload(t, f, 4000)
			} else {
				at = hotColdWorkload(t, f, 20000, 600)
			}
			if f.Counts()[obs.EvGCRun] == 0 {
				t.Fatal("workload never collected; crash state too simple")
			}

			// "Power loss": all SRAM state is gone; only the device survives.
			r, err := NewRecovered(dev, Config{Layout: f.cfg.Layout, ExtraPerPlane: 4, CMTEntries: 32})
			if err != nil {
				t.Fatal(err)
			}
			for lpn := ftl.LPN(0); lpn < f.Capacity(); lpn++ {
				if got, want := r.Lookup(lpn), f.Lookup(lpn); got != want {
					t.Fatalf("lpn %d: recovered %d, want %d", lpn, got, want)
				}
			}

			// The recovered instance keeps serving: writes (including the GC
			// they trigger) stay consistent.
			n, post := 3000, func(i int) ftl.LPN { return ftl.LPN(i % 600) }
			if striped {
				n, post = 2000, func(i int) ftl.LPN { return ftl.LPN(i % 90 * 8) }
			}
			for i := 0; i < n; i++ {
				end, err := r.WritePage(post(i), at)
				if err != nil {
					t.Fatalf("post-recovery write %d: %v", i, err)
				}
				at = end
			}
			checkMapping(t, r, dev)
		})
	}
}

// TestRecoveryOfEmptyDevice recovers a blank device: everything free.
func TestRecoveryOfEmptyDevice(t *testing.T) {
	for _, name := range presetNames {
		r, err := NewRecovered(newTestDevice(t), Config{Layout: layout(t, name), ExtraPerPlane: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.WritePage(0, 0); err != nil {
			t.Fatal(err)
		}
		if r.Lookup(0) == flash.InvalidPPN {
			t.Fatalf("%s: write after empty recovery not mapped", name)
		}
	}
}

// TestRecoveryPartialBlocks pins each preset's rule for resuming partially
// written blocks: one per plane when striped, at most DFTL's two logs or
// PureMap's one otherwise.
func TestRecoveryPartialBlocks(t *testing.T) {
	geo := testGeo()
	for _, tc := range []struct {
		name   string
		blocks []flash.PlaneBlock // each gets its first page programmed
		ok     bool
	}{
		{"DLOOP", []flash.PlaneBlock{{Plane: 0, Block: 0}, {Plane: 1, Block: 0}}, true},
		{"DLOOP", []flash.PlaneBlock{{Plane: 0, Block: 0}, {Plane: 0, Block: 1}}, false},
		{"PureMap-striped", []flash.PlaneBlock{{Plane: 0, Block: 0}, {Plane: 1, Block: 0}}, true},
		{"PureMap-striped", []flash.PlaneBlock{{Plane: 0, Block: 0}, {Plane: 0, Block: 1}}, false},
		{"DFTL", []flash.PlaneBlock{{Plane: 0, Block: 0}, {Plane: 0, Block: 1}}, true},
		{"DFTL", []flash.PlaneBlock{{Plane: 0, Block: 0}, {Plane: 1, Block: 0}, {Plane: 2, Block: 0}}, false},
		{"PureMap", []flash.PlaneBlock{{Plane: 3, Block: 2}}, true},
		{"PureMap", []flash.PlaneBlock{{Plane: 0, Block: 0}, {Plane: 1, Block: 0}}, false},
	} {
		dev := newTestDevice(t)
		for i, pb := range tc.blocks {
			if _, err := dev.WritePage(geo.PPNOf(pb.Plane, pb.Block, 0), int64(i), 0, flash.CauseHost); err != nil {
				t.Fatal(err)
			}
		}
		r, err := NewRecovered(dev, Config{Layout: layout(t, tc.name), ExtraPerPlane: 4})
		if (err == nil) != tc.ok {
			t.Fatalf("%s with %d partial blocks: err = %v, want ok %v", tc.name, len(tc.blocks), err, tc.ok)
		}
		if err != nil {
			continue
		}
		// The partial blocks resume as write points rather than leaking.
		active := 0
		for _, wp := range r.cur {
			if wp.active {
				active++
				if wp.next != 1 {
					t.Fatalf("%s: resumed write point at page %d, want 1", tc.name, wp.next)
				}
			}
		}
		if active != len(tc.blocks) {
			t.Fatalf("%s: %d write points resumed, want %d", tc.name, active, len(tc.blocks))
		}
	}
}
