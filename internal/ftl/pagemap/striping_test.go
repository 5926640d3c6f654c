package pagemap

import (
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

// stripings lists the policies in the paper's §II.C discussion order.
var stripings = []Striping{StripePlane, StripeDie, StripeChip, StripeChannel}

func TestStripePermutationProperties(t *testing.T) {
	geo := testGeo() // 2ch x 1pkg x 2chip x 1die x 2plane = 8 planes, 4 chips
	for _, policy := range stripings {
		perm, err := stripePermutation(geo, policy)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if len(perm) != geo.Planes() {
			t.Fatalf("%s: perm length %d", policy, len(perm))
		}
		seen := make(map[int]bool)
		for _, p := range perm {
			if p < 0 || p >= geo.Planes() || seen[p] {
				t.Fatalf("%s: not a permutation: %v", policy, perm)
			}
			seen[p] = true
		}
	}
	if _, err := stripePermutation(geo, Striping("bogus")); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestStripePlaneIsIdentity(t *testing.T) {
	perm, err := stripePermutation(testGeo(), StripePlane)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range perm {
		if p != i {
			t.Fatalf("plane striping must be equation (1) verbatim, got perm[%d]=%d", i, p)
		}
	}
}

func TestStripeChannelAlternatesChannels(t *testing.T) {
	geo := testGeo()
	perm, err := stripePermutation(geo, StripeChannel)
	if err != nil {
		t.Fatal(err)
	}
	// With 2 channels, consecutive indices must alternate channels for the
	// first full round.
	for i := 0; i+1 < geo.Channels; i++ {
		a := geo.ChannelOfPlane(perm[i])
		b := geo.ChannelOfPlane(perm[i+1])
		if a == b {
			t.Fatalf("consecutive lpns on same channel: perm=%v", perm)
		}
	}
}

func TestStripeChipSpreadsChips(t *testing.T) {
	geo := testGeo() // 4 chips
	perm, err := stripePermutation(geo, StripeChip)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < 4; i++ {
		seen[geo.ChipOfPlane(perm[i])] = true
	}
	if len(seen) != 4 {
		t.Fatalf("first 4 lpns should visit 4 distinct chips: perm=%v", perm)
	}
}

// TestStripingKeepsUpdateLocality verifies the DLOOP invariant holds under
// every policy: updates stay on their original's plane, so GC remains
// copy-back only.
func TestStripingKeepsUpdateLocality(t *testing.T) {
	for _, policy := range stripings {
		l := layout(t, "DLOOP")
		l.StripeBy = policy
		f, dev := newTestFTL(t, Config{Layout: l})
		var at sim.Time
		for i := 0; i < 4000; i++ {
			lpn := ftl.LPN(i % 12 * 8)
			if i%8 == 0 {
				lpn = ftl.LPN((12 + i/8%78) * 8)
			}
			end, err := f.WritePage(lpn, at)
			if err != nil {
				t.Fatalf("%s: %v", policy, err)
			}
			at = end
		}
		if f.Counts()[obs.EvGCRun] == 0 {
			t.Fatalf("%s: GC never ran", policy)
		}
		cb, ext := dev.Stats().GCMoves()
		if cb == 0 {
			t.Fatalf("%s: no copy-backs", policy)
		}
		if ext > cb/5 {
			t.Fatalf("%s: external moves %d not dominated by copy-backs %d", policy, ext, cb)
		}
		geo := dev.Geometry()
		for lpn := ftl.LPN(0); lpn < f.Capacity(); lpn++ {
			ppn := f.Lookup(lpn)
			if ppn == flash.InvalidPPN {
				continue
			}
			if want := f.perm[int64(lpn)%int64(geo.Planes())]; geo.BlockOf(ppn).Plane != want {
				t.Fatalf("%s: lpn %d on plane %d, want %d", policy, lpn, geo.BlockOf(ppn).Plane, want)
			}
		}
	}
}
