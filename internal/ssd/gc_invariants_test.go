package ssd

import (
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/trace"
)

// TestGCInvariants is the cross-scheme GC property test: every scheme under
// every victim policy must preserve the engine's relocation invariants on a
// GC-heavy workload.
//
//  1. Valid-page conservation: relocations never lose or duplicate data. The
//     set of valid pages on flash and the set of mapped lpns are in exact
//     bijection (checked in both directions).
//  2. No page is programmed twice between erases: the flash device hard-errors
//     on any program to a non-free page, so the run completing is itself the
//     proof; the per-block bookkeeping is re-derived from page states on top.
//  3. Parity waste only arises from mismatched-parity copy-back moves: schemes
//     that relocate exclusively through the buses (external reads + writes)
//     must never waste a page, and any waste reported implies copy-back moves
//     happened.
func TestGCInvariants(t *testing.T) {
	schemes := []string{SchemeDLOOP, SchemeDFTL, SchemeFAST, SchemePureMap, SchemePureMapStriped}
	for _, scheme := range schemes {
		for _, pol := range []string{"", "greedy", "costbenefit", "fifo"} {
			name := scheme + "/default/seq"
			if pol != "" {
				name = scheme + "/" + pol + "/seq"
			}
			t.Run(name, func(t *testing.T) {
				cfg := tinyConfig(scheme)
				cfg.GCPolicy = pol
				c, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				preconditionTiny(t, c)
				res, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 2500, 13)))
				if err != nil {
					t.Fatal(err)
				}
				if res.Erases == 0 {
					t.Fatal("workload never triggered GC; the run proves nothing")
				}
				checkMappingConsistency(t, c) // lpn -> ppn direction: unique, valid, right tag
				checkValidPagesMapped(t, c)   // ppn -> lpn direction: no orphaned valid data
				checkBlockBookkeeping(t, c)
				if res.WastedPages > 0 && res.GCCopyBacks == 0 {
					t.Errorf("%d pages wasted with zero copy-back moves; the parity rule binds only copy-back", res.WastedPages)
				}
				switch scheme {
				case SchemeDFTL, SchemeFAST, SchemePureMap:
					// External-move schemes: parity never constrains the buses.
					if res.WastedPages != 0 {
						t.Errorf("external-move scheme wasted %d pages", res.WastedPages)
					}
				}
			})
		}
	}
}

// checkValidPagesMapped scans the whole device and asserts every valid page
// is reachable: its tag is a live lpn whose current mapping is exactly this
// page. Together with checkMappingConsistency this proves the valid-page set
// and the mapped-lpn set are in bijection — GC moved pages without losing or
// duplicating any.
func checkValidPagesMapped(t *testing.T, c *Controller) {
	t.Helper()
	dev := c.Device()
	geo := dev.Geometry()
	for plane := 0; plane < geo.Planes(); plane++ {
		for block := 0; block < geo.BlocksPerPlane; block++ {
			first := geo.FirstPPN(flash.PlaneBlock{Plane: plane, Block: block})
			for p := 0; p < geo.PagesPerBlock; p++ {
				ppn := first + flash.PPN(p)
				if dev.PageState(ppn) != flash.PageValid {
					continue
				}
				tag := dev.PageLPN(ppn)
				if tag < 0 || tag >= int64(c.FTL().Capacity()) {
					// Translation pages (DFTL/DLOOP GTD) carry encoded tags;
					// they are owned by the mapper, not the data path.
					continue
				}
				if got := lookup(t, c.FTL(), ftl.LPN(tag)); got != ppn {
					t.Fatalf("valid page %d holds lpn %d, but the FTL maps it to %d", ppn, tag, got)
				}
			}
		}
	}
}

// checkBlockBookkeeping re-derives each block's counters from raw page states
// and compares them to the device's incremental bookkeeping.
func checkBlockBookkeeping(t *testing.T, c *Controller) {
	t.Helper()
	dev := c.Device()
	geo := dev.Geometry()
	for plane := 0; plane < geo.Planes(); plane++ {
		for block := 0; block < geo.BlocksPerPlane; block++ {
			pb := flash.PlaneBlock{Plane: plane, Block: block}
			info := dev.Block(pb)
			first := geo.FirstPPN(pb)
			var valid, invalid, nextWrite int
			for p := 0; p < geo.PagesPerBlock; p++ {
				switch dev.PageState(first + flash.PPN(p)) {
				case flash.PageValid:
					valid++
					nextWrite = p + 1
				case flash.PageInvalid:
					invalid++
					nextWrite = p + 1
				}
			}
			if valid != info.Valid || invalid != info.Invalid {
				t.Fatalf("block %v bookkeeping %+v, recount valid=%d invalid=%d", pb, info, valid, invalid)
			}
			if nextWrite != info.NextWrite {
				t.Fatalf("block %v NextWrite %d, recount %d", pb, info.NextWrite, nextWrite)
			}
		}
	}
}
