package fast

import (
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
)

// NewRecovered checks the device it adopts without building a page table:
// each LPN may have one valid copy, every data tag must lie below the
// exported capacity, and FAST keeps no translation pages. The devices are
// crafted page by page; a device that breaks a rule is refused with the
// scan's error text.
func TestRecoveredRefusesCraftedDevices(t *testing.T) {
	cfg := Config{ExtraPerPlane: 4}
	capacity := ftl.ExportedPages(testGeo(), cfg.ExtraPerPlane) // 768
	ppb := flash.PPN(testGeo().PagesPerBlock)
	type page struct {
		ppn flash.PPN
		tag int64
	}
	for _, tc := range []struct {
		name  string
		pages []page
		want  string // "" = recovers
	}{
		// 5 and 69 share a bit position in different words of the set, 63
		// and 64 straddle a word boundary.
		{"one copy each", []page{{0, 5}, {1, 69}, {ppb, 63}, {ppb + 1, 64}, {2 * ppb, int64(capacity) - 1}}, ""},
		{"two copies in one block", []page{{0, 5}, {1, 5}}, "ftl: recovery found two valid copies of lpn 5"},
		{"two copies in two planes", []page{{0, 64}, {16 * ppb, 64}}, "ftl: recovery found two valid copies of lpn 64"},
		{"tag at capacity", []page{{0, 5}, {1, int64(capacity)}}, "ftl: recovery: ftl: lpn 768 outside exported capacity 768"},
		{"translation tag", []page{{0, ftl.EncodeTrans(0)}}, "ftl: recovery found translation page 0 outside GTD of 0"},
	} {
		dev, err := flash.NewDevice(testGeo(), flash.DefaultTiming())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tc.pages {
			if _, err := dev.WritePage(p.ppn, p.tag, 0, flash.CauseHost); err != nil {
				t.Fatalf("%s: write %d at ppn %d: %v", tc.name, p.tag, p.ppn, err)
			}
		}
		_, err = NewRecovered(dev, cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
