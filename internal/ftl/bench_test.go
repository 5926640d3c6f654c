package ftl

import (
	"testing"

	"dloop/internal/flash"
)

// BenchmarkTrackerChurn measures victim-index updates under a GC-like churn:
// one plane's blocks take invalidations round robin, and every 64th step
// the greedy victim is taken, recycled and closed again. The device work
// runs untimed.
func BenchmarkTrackerChurn(b *testing.B) {
	geo := flash.Geometry{
		Channels: 1, PackagesPerChannel: 1, ChipsPerPackage: 1,
		DiesPerChip: 1, PlanesPerDie: 1, BlocksPerPlane: 2048,
		PagesPerBlock: 64, PageSize: 2048,
	}
	dev, tr := newTrackedDevice(b, geo)
	for bk := 0; bk < geo.BlocksPerPlane; bk++ {
		tr.Close(flash.PlaneBlock{Plane: 0, Block: bk})
	}
	b.ReportAllocs()
	b.ResetTimer()
	_ = flash.Untimed([]*flash.Device{dev}, func() error {
		for i := 0; i < b.N; i++ {
			if pb := (flash.PlaneBlock{Plane: 0, Block: i % geo.BlocksPerPlane}); dev.Block(pb).Valid > 0 {
				invalidate(b, dev, tr, pb)
			}
			if i%64 == 63 {
				victim, _, ok := tr.MaxInPlane(0)
				if !ok {
					b.Fatal("no victim")
				}
				tr.Take(victim)
				recycle(b, dev, tr, victim)
				tr.Close(victim)
			}
		}
		return nil
	})
}
