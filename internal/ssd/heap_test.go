//go:build unix && !race

package ssd

import (
	"runtime"
	"testing"
)

// TestBuildHeap64GB holds the Go heap a 64 GB controller of each scheme
// allocates at Build to 2 MB. Every array whose length follows the device's
// capacity (page words, block rows, erase counts, mapping tables, free
// pools, victim indexes, FAST's block and log maps) is a mapped column, so
// what remains is per-plane, per-bus and per-translation-page state. Builds
// whose columns come from make (race, non-unix) would count them all. The
// heap counters are process-wide, so a reading over the bound is taken
// again, up to three times, and the least counts.
func TestBuildHeap64GB(t *testing.T) {
	const boundMB = 2
	for _, scheme := range []string{SchemeDLOOP, SchemeDFTL, SchemeFAST, SchemePureMap} {
		var mb float64
		for try := 0; try < 3 && (try == 0 || mb > boundMB); try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c, err := Build(Config{CapacityGB: 64, FTL: scheme})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			c.Close()
			if n := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); try == 0 || n < mb {
				mb = n
			}
		}
		t.Logf("%s: %.2f MB of heap", scheme, mb)
		if mb > boundMB {
			t.Errorf("building a 64 GB %s controller allocates %.2f MB of heap, want at most %d MB", scheme, mb, boundMB)
		}
	}
}
