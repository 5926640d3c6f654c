package flash

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testGeometry() Geometry {
	return Geometry{
		Channels:           2,
		PackagesPerChannel: 1,
		ChipsPerPackage:    2,
		DiesPerChip:        2,
		PlanesPerDie:       2,
		BlocksPerPlane:     8,
		PagesPerBlock:      4,
		PageSize:           2048,
	}
}

func TestGeometryTotals(t *testing.T) {
	g := testGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.Packages(); got != 2 {
		t.Errorf("Packages: got %d, want 2", got)
	}
	if got := g.Chips(); got != 4 {
		t.Errorf("Chips: got %d, want 4", got)
	}
	if got := g.Dies(); got != 8 {
		t.Errorf("Dies: got %d, want 8", got)
	}
	if got := g.Planes(); got != 16 {
		t.Errorf("Planes: got %d, want 16", got)
	}
	if got := g.TotalBlocks(); got != 128 {
		t.Errorf("TotalBlocks: got %d, want 128", got)
	}
	if got := g.TotalPages(); got != 512 {
		t.Errorf("TotalPages: got %d, want 512", got)
	}
	if got := g.PhysicalBytes(); got != 512*2048 {
		t.Errorf("PhysicalBytes: got %d, want %d", got, 512*2048)
	}
}

func TestGeometryValidateRejectsBadFields(t *testing.T) {
	cases := []func(*Geometry){
		func(g *Geometry) { g.Channels = 0 },
		func(g *Geometry) { g.PackagesPerChannel = -1 },
		func(g *Geometry) { g.ChipsPerPackage = 0 },
		func(g *Geometry) { g.DiesPerChip = 0 },
		func(g *Geometry) { g.PlanesPerDie = 0 },
		func(g *Geometry) { g.BlocksPerPlane = 0 },
		func(g *Geometry) { g.PagesPerBlock = 0 },
		func(g *Geometry) { g.PageSize = 0 },
		func(g *Geometry) { g.PagesPerBlock = 63 }, // odd breaks parity rule
	}
	for i, mutate := range cases {
		g := testGeometry()
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid geometry %+v", i, g)
		}
	}
}

func TestPPNRoundTrip(t *testing.T) {
	g := testGeometry()
	for plane := 0; plane < g.Planes(); plane++ {
		for block := 0; block < g.BlocksPerPlane; block++ {
			for page := 0; page < g.PagesPerBlock; page++ {
				ppn := g.PPNOf(plane, block, page)
				if !g.ValidPPN(ppn) {
					t.Fatalf("PPNOf(%d,%d,%d)=%d invalid", plane, block, page, ppn)
				}
				pb := g.BlockOf(ppn)
				if pb.Plane != plane || pb.Block != block {
					t.Fatalf("BlockOf(%d): got %v, want plane %d block %d", ppn, pb, plane, block)
				}
				if got := g.FirstPPN(pb) + PPN(page); got != ppn {
					t.Fatalf("FirstPPN(%v)+%d: got %d, want %d", pb, page, got, ppn)
				}
			}
		}
	}
}

func TestPPNRoundTripProperty(t *testing.T) {
	g := Geometry{
		Channels: 4, PackagesPerChannel: 2, ChipsPerPackage: 2,
		DiesPerChip: 2, PlanesPerDie: 2, BlocksPerPlane: 512,
		PagesPerBlock: 64, PageSize: 4096,
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		plane := rng.Intn(g.Planes())
		block := rng.Intn(g.BlocksPerPlane)
		page := rng.Intn(g.PagesPerBlock)
		ppn := g.PPNOf(plane, block, page)
		pb := g.BlockOf(ppn)
		return pb.Plane == plane && pb.Block == block && g.FirstPPN(pb)+PPN(page) == ppn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChannelAssignmentRoundRobin(t *testing.T) {
	g := testGeometry()
	// 2 packages over 2 channels: planes 0..7 on channel 0, 8..15 on channel 1.
	for plane := 0; plane < g.Planes(); plane++ {
		wantPkg := plane / 8
		if got := g.PackageOfPlane(plane); got != wantPkg {
			t.Errorf("PackageOfPlane(%d): got %d, want %d", plane, got, wantPkg)
		}
		if got := g.ChannelOfPlane(plane); got != wantPkg%g.Channels {
			t.Errorf("ChannelOfPlane(%d): got %d, want %d", plane, got, wantPkg%g.Channels)
		}
	}
	// With more packages than channels, assignment wraps.
	g.PackagesPerChannel = 3
	if got := g.ChannelOfPlane(2 * 8); got != 0 {
		t.Errorf("third package should wrap to channel 0, got %d", got)
	}
}

func TestBlockIndexDense(t *testing.T) {
	g := testGeometry()
	seen := make(map[int64]bool)
	for plane := 0; plane < g.Planes(); plane++ {
		for block := 0; block < g.BlocksPerPlane; block++ {
			idx := g.BlockIndex(PlaneBlock{plane, block})
			if idx < 0 || idx >= g.TotalBlocks() {
				t.Fatalf("BlockIndex out of range: %d", idx)
			}
			if seen[idx] {
				t.Fatalf("BlockIndex collision at %d", idx)
			}
			seen[idx] = true
		}
	}
}

func TestValidBlockBounds(t *testing.T) {
	g := testGeometry()
	valid := []PlaneBlock{{0, 0}, {15, 7}}
	invalid := []PlaneBlock{{-1, 0}, {0, -1}, {16, 0}, {0, 8}}
	for _, pb := range valid {
		if !g.ValidBlock(pb) {
			t.Errorf("ValidBlock(%v) = false, want true", pb)
		}
	}
	for _, pb := range invalid {
		if g.ValidBlock(pb) {
			t.Errorf("ValidBlock(%v) = true, want false", pb)
		}
	}
}

// ValidPPN reports whether the physical page number is within the geometry.
func (g Geometry) ValidPPN(ppn PPN) bool {
	return ppn >= 0 && int64(ppn) < g.TotalPages()
}
