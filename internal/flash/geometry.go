// Package flash models a NAND flash solid-state disk at the level the DLOOP
// paper's extended FlashSim simulates it: a hierarchy of channels, packages,
// chips, dies, and planes; blocks that erase as a unit; pages that program as
// a unit; and the advanced intra-plane copy-back command with its
// same-parity restriction.
//
// The device enforces the NAND state machine (erase-before-write, no
// overwrite of a programmed page, copy-back only within one plane and only
// between pages whose in-block offsets share parity) and charges simulated
// time against the resources each operation occupies: the plane's cell
// array, the chip's serial I/O bus, and the channel.
package flash

import (
	"errors"
	"fmt"
)

// Geometry describes the physical shape of a flash SSD. All counts are per
// parent unit. The hierarchy follows Fig. 1 of the paper: the controller
// drives channels; packages share a channel; chips within a package share the
// package's I/O bus but have separate enable signals; each chip holds dies;
// each die holds planes; planes hold blocks of pages.
type Geometry struct {
	Channels           int
	PackagesPerChannel int
	ChipsPerPackage    int
	DiesPerChip        int
	PlanesPerDie       int
	BlocksPerPlane     int // physical blocks, including over-provisioning
	PagesPerBlock      int
	PageSize           int // bytes
}

// MaxPagesPerBlock is the most pages a block may have: a block row packs its
// valid, invalid and high-water counts, each at most PagesPerBlock, into 10
// bits apiece of one 32-bit word.
const MaxPagesPerBlock = 1<<rowBits - 1

// Validate reports whether every field is positive, PagesPerBlock is even
// and at most MaxPagesPerBlock, and the derived totals fit the address
// types.
func (g Geometry) Validate() error {
	fields := []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels},
		{"PackagesPerChannel", g.PackagesPerChannel},
		{"ChipsPerPackage", g.ChipsPerPackage},
		{"DiesPerChip", g.DiesPerChip},
		{"PlanesPerDie", g.PlanesPerDie},
		{"BlocksPerPlane", g.BlocksPerPlane},
		{"PagesPerBlock", g.PagesPerBlock},
		{"PageSize", g.PageSize},
	}
	for _, f := range fields {
		if f.v <= 0 {
			return fmt.Errorf("flash: geometry field %s must be positive, got %d", f.name, f.v)
		}
	}
	if g.PagesPerBlock%2 != 0 {
		return errors.New("flash: PagesPerBlock must be even for the copy-back parity rule to be satisfiable")
	}
	if g.PagesPerBlock > MaxPagesPerBlock {
		return fmt.Errorf("flash: %w: PagesPerBlock %d, limit %d", ErrBlockTooLarge, g.PagesPerBlock, MaxPagesPerBlock)
	}
	if g.TotalPages() > 1<<56 {
		return errors.New("flash: geometry too large for 64-bit page addressing")
	}
	return nil
}

// Packages returns the total number of packages in the device.
func (g Geometry) Packages() int { return g.Channels * g.PackagesPerChannel }

// Chips returns the total number of chips in the device.
func (g Geometry) Chips() int { return g.Packages() * g.ChipsPerPackage }

// Dies returns the total number of dies in the device.
func (g Geometry) Dies() int { return g.Chips() * g.DiesPerChip }

// Planes returns the total number of planes in the device.
func (g Geometry) Planes() int { return g.Dies() * g.PlanesPerDie }

// PlanesPerChip returns the number of planes behind one chip's serial bus.
func (g Geometry) PlanesPerChip() int { return g.DiesPerChip * g.PlanesPerDie }

// TotalBlocks returns the number of physical blocks in the device.
func (g Geometry) TotalBlocks() int64 {
	return int64(g.Planes()) * int64(g.BlocksPerPlane)
}

// TotalPages returns the number of physical pages in the device.
func (g Geometry) TotalPages() int64 {
	return g.TotalBlocks() * int64(g.PagesPerBlock)
}

// PhysicalBytes returns the raw capacity of the device in bytes, including
// over-provisioned blocks.
func (g Geometry) PhysicalBytes() int64 {
	return g.TotalPages() * int64(g.PageSize)
}

// ChipOfPlane returns the index of the chip containing the given plane.
func (g Geometry) ChipOfPlane(plane int) int { return plane / g.PlanesPerChip() }

// DieOfPlane returns the global die index containing the given plane.
func (g Geometry) DieOfPlane(plane int) int { return plane / g.PlanesPerDie }

// PackageOfPlane returns the index of the package containing the given plane.
func (g Geometry) PackageOfPlane(plane int) int {
	return g.ChipOfPlane(plane) / g.ChipsPerPackage
}

// ChannelOfPlane returns the channel that serves the given plane. Packages
// are assigned to channels round-robin, so growing a device by adding
// packages spreads the new capacity across channels the way adding packages
// to a real SSD does.
func (g Geometry) ChannelOfPlane(plane int) int {
	return g.PackageOfPlane(plane) % g.Channels
}

func (g Geometry) String() string {
	return fmt.Sprintf("%dch×%dpkg×%dchip×%ddie×%dplane, %d blocks/plane × %d pages × %dB (%d planes, %.1f GB raw)",
		g.Channels, g.PackagesPerChannel, g.ChipsPerPackage, g.DiesPerChip, g.PlanesPerDie,
		g.BlocksPerPlane, g.PagesPerBlock, g.PageSize,
		g.Planes(), float64(g.PhysicalBytes())/(1<<30))
}

// PPN is a physical page number: a dense index over every physical page in
// the device, ordered plane-major then block then page offset.
type PPN int64

// InvalidPPN marks "no physical page", used for unmapped logical pages.
const InvalidPPN PPN = -1

// PlaneBlock names one physical block by its plane and in-plane block index.
type PlaneBlock struct {
	Plane int
	Block int
}

func (pb PlaneBlock) String() string {
	return fmt.Sprintf("plane %d block %d", pb.Plane, pb.Block)
}

// PPNOf composes a physical page number from plane, in-plane block, and
// in-block page offset.
func (g Geometry) PPNOf(plane, block, page int) PPN {
	return PPN((int64(plane)*int64(g.BlocksPerPlane)+int64(block))*int64(g.PagesPerBlock) + int64(page))
}

// BlockOf returns the block containing a physical page.
func (g Geometry) BlockOf(ppn PPN) PlaneBlock {
	b := int64(ppn) / int64(g.PagesPerBlock)
	return PlaneBlock{
		Plane: int(b / int64(g.BlocksPerPlane)),
		Block: int(b % int64(g.BlocksPerPlane)),
	}
}

// BlockIndex returns a dense index over all physical blocks for the given
// block address, suitable for indexing flat per-block state.
func (g Geometry) BlockIndex(pb PlaneBlock) int64 {
	return int64(pb.Plane)*int64(g.BlocksPerPlane) + int64(pb.Block)
}

// FirstPPN returns the physical page number of page 0 of the given block.
func (g Geometry) FirstPPN(pb PlaneBlock) PPN {
	return PPN(g.BlockIndex(pb) * int64(g.PagesPerBlock))
}

// ValidBlock reports whether the block address is within the geometry.
func (g Geometry) ValidBlock(pb PlaneBlock) bool {
	return pb.Plane >= 0 && pb.Plane < g.Planes() && pb.Block >= 0 && pb.Block < g.BlocksPerPlane
}
