package flash

import (
	"errors"
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
		func(g *Geometry) { g.PagesPerBlock = MaxPagesPerBlock + 1 },
	}
	for i, mutate := range cases {
		g := testGeometry()
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid geometry %+v", i, g)
		}
	}
}

// TestGeometryPagesPerBlockLimit checks the block-row bound: the largest
// even PagesPerBlock a row can pack is accepted, and a block of that size
// counts every page in each of its row's fields; the next even size fails
// with ErrBlockTooLarge.
func TestGeometryPagesPerBlockLimit(t *testing.T) {
	g := testGeometry()
	g.PagesPerBlock = MaxPagesPerBlock + 1
	if err := g.Validate(); !errors.Is(err, ErrBlockTooLarge) {
		t.Fatalf("PagesPerBlock %d: %v, want ErrBlockTooLarge", g.PagesPerBlock, err)
	}
	g.PagesPerBlock = MaxPagesPerBlock - 1
	d, err := NewDevice(g, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Release()
	pb := PlaneBlock{Plane: 1, Block: 2}
	first := g.FirstPPN(pb)
	for p := 0; p < g.PagesPerBlock; p++ {
		if _, err := d.WritePage(first+PPN(p), int64(p), 0, CauseHost); err != nil {
			t.Fatal(err)
		}
	}
	full := BlockInfo{Valid: g.PagesPerBlock, NextWrite: g.PagesPerBlock}
	if got := d.Block(pb); got != full {
		t.Fatalf("full block row %+v, want %+v", got, full)
	}
	for p := 0; p < g.PagesPerBlock; p++ {
		if err := d.Invalidate(first + PPN(p)); err != nil {
			t.Fatal(err)
		}
	}
	full.Valid, full.Invalid = 0, g.PagesPerBlock
	if got := d.Block(pb); got != full {
		t.Fatalf("invalidated block row %+v, want %+v", got, full)
	}
	if got := d.Block(PlaneBlock{Plane: 1, Block: 3}); got != (BlockInfo{}) {
		t.Fatalf("the next block's row %+v, want empty", got)
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
