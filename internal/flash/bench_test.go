package flash

import (
	"fmt"
	"testing"

	"dloop/internal/sim"
)

func benchDevice(b *testing.B) *Device {
	b.Helper()
	g := Geometry{
		Channels: 8, PackagesPerChannel: 1, ChipsPerPackage: 2,
		DiesPerChip: 2, PlanesPerDie: 2, BlocksPerPlane: 256,
		PagesPerBlock: 64, PageSize: 2048,
	}
	d, err := NewDevice(g, DefaultTiming())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Release)
	return d
}

// BenchmarkWriteErase measures the write-then-erase cycle, the inner loop of
// every simulation.
func BenchmarkWriteErase(b *testing.B) {
	d := benchDevice(b)
	g := d.Geometry()
	var at sim.Time
	// One untimed write/erase cycle over every block the timed loop will
	// revisit, so resource timelines and per-block state reach steady-state
	// capacity first; otherwise their one-time growth shows up as amortized
	// B/op noise that flakes the any-growth bench gate.
	for i := 0; i < g.Planes()*g.BlocksPerPlane; i++ {
		pb := PlaneBlock{Plane: i % g.Planes(), Block: (i / g.Planes()) % g.BlocksPerPlane}
		first := g.FirstPPN(pb)
		for p := 0; p < g.PagesPerBlock; p++ {
			end, err := d.WritePage(first+PPN(p), int64(p), at, CauseHost)
			if err != nil {
				b.Fatal(err)
			}
			at = end
			if err := d.Invalidate(first + PPN(p)); err != nil {
				b.Fatal(err)
			}
		}
		end, err := d.Erase(pb, at, CauseGC)
		if err != nil {
			b.Fatal(err)
		}
		at = end
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb := PlaneBlock{Plane: i % g.Planes(), Block: (i / g.Planes()) % g.BlocksPerPlane}
		first := g.FirstPPN(pb)
		for p := 0; p < g.PagesPerBlock; p++ {
			end, err := d.WritePage(first+PPN(p), int64(p), at, CauseHost)
			if err != nil {
				b.Fatal(err)
			}
			at = end
			if err := d.Invalidate(first + PPN(p)); err != nil {
				b.Fatal(err)
			}
		}
		end, err := d.Erase(pb, at, CauseGC)
		if err != nil {
			b.Fatal(err)
		}
		at = end
	}
}

// BenchmarkCopyBack measures the intra-plane copy-back fast path: pages
// ping-pong between two blocks on one plane, with an erase each time a
// block drains.
func BenchmarkCopyBack(b *testing.B) {
	d := benchDevice(b)
	g := d.Geometry()
	var at sim.Time
	for p := 0; p < g.PagesPerBlock; p++ {
		end, err := d.WritePage(g.PPNOf(0, 0, p), int64(p), at, CauseHost)
		if err != nil {
			b.Fatal(err)
		}
		at = end
	}
	b.ReportAllocs()
	b.ResetTimer()
	srcBlock, dstBlock, page := 0, 1, 0
	for i := 0; i < b.N; i++ {
		from := g.PPNOf(0, srcBlock, page)
		to := g.PPNOf(0, dstBlock, page)
		end, err := d.CopyBack(from, to, at, CauseGC)
		if err != nil {
			b.Fatal(err)
		}
		at = end
		page++
		if page == g.PagesPerBlock {
			if _, err := d.Erase(PlaneBlock{0, srcBlock}, at, CauseGC); err != nil {
				b.Fatal(err)
			}
			srcBlock, dstBlock = dstBlock, srcBlock
			page = 0
		}
	}
}

// BenchmarkCopyBackRun measures a copy-back run of k pages (a collection's
// victim-to-destination-block unit; 55 is gcheavy_dloop's mean per victim)
// on a plane whose timeline is warm: pages ping-pong between two blocks,
// with an erase each time a block has no room for another run. One op is
// one run; ns/page divides by k.
func BenchmarkCopyBackRun(b *testing.B) {
	for _, k := range []int{1, 8, 55} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			d := benchDevice(b)
			g := d.Geometry()
			var at sim.Time
			for p := 0; p < g.PagesPerBlock; p++ {
				end, err := d.WritePage(g.PPNOf(0, 0, p), int64(p), at, CauseHost)
				if err != nil {
					b.Fatal(err)
				}
				at = end
			}
			srcs, dsts := make([]PPN, k), make([]PPN, k)
			src, dst, off := PlaneBlock{0, 0}, PlaneBlock{0, 1}, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range srcs {
					srcs[j] = g.FirstPPN(src) + PPN(off+j)
					dsts[j] = g.FirstPPN(dst) + PPN(off+j)
				}
				end, err := d.CopyBackRun(srcs, dsts, at, CauseGC)
				if err != nil {
					b.Fatal(err)
				}
				at = end
				if off += k; off+k > g.PagesPerBlock {
					for p := 0; p < g.PagesPerBlock; p++ {
						if ppn := g.FirstPPN(src) + PPN(p); d.PageState(ppn) == PageValid { // the tail no whole run fits in
							if err := d.Invalidate(ppn); err != nil {
								b.Fatal(err)
							}
						}
					}
					if at, err = d.Erase(src, at, CauseGC); err != nil {
						b.Fatal(err)
					}
					src, dst, off = dst, src, 0
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/page")
		})
	}
}

// BenchmarkMoveExternal measures one external move (Device.MoveExternal: read,
// transfer out, transfer in, program): pages ping-pong between a block on the
// first plane and one on the last, a plane of another channel, with an erase
// each time the source drains. On the idle tail every move is ready when the
// one before (or the erase) completes, past all six timelines' tails, so both
// of its operations take the closed form; on the pre-occupied timeline each
// timeline has an occupation far ahead, every move is ready behind the
// tails, and both take the general path, backfilling.
func BenchmarkMoveExternal(b *testing.B) {
	for _, preoccupied := range []bool{false, true} {
		name := "idle-tail"
		if preoccupied {
			name = "pre-occupied"
		}
		b.Run(name, func(b *testing.B) {
			d := benchDevice(b)
			g := d.Geometry()
			src, dst := PlaneBlock{0, 0}, PlaneBlock{g.Planes() - 1, 0}
			var at sim.Time
			for p := 0; p < g.PagesPerBlock; p++ {
				end, err := d.WritePage(g.FirstPPN(src)+PPN(p), int64(p), at, CauseHost)
				if err != nil {
					b.Fatal(err)
				}
				at = end
			}
			if preoccupied {
				far := at.Add(1e6 * sim.Second)
				for _, plane := range []int{src.Plane, dst.Plane} {
					island := g.PPNOf(plane, 1, 0)
					if _, err := d.WritePage(island, int64(g.PagesPerBlock), at, CauseHost); err != nil {
						b.Fatal(err)
					}
					if _, err := d.ReadPage(island, far, CauseHost); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			page := 0
			for i := 0; i < b.N; i++ {
				end, err := d.MoveExternal(g.FirstPPN(src)+PPN(page), g.FirstPPN(dst)+PPN(page), at, CauseGC)
				if err != nil {
					b.Fatal(err)
				}
				at = end
				if page++; page == g.PagesPerBlock {
					if at, err = d.Erase(src, at, CauseGC); err != nil {
						b.Fatal(err)
					}
					src, dst, page = dst, src, 0
				}
			}
		})
	}
}
