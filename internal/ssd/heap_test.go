//go:build unix && !race

package ssd

import (
	"runtime"
	"testing"
)

// buildHeapMB returns the MB of Go heap that building, then closing, a
// controller of cfg allocates. The heap counters are process-wide, so a
// reading over boundMB is taken again, up to three times, and the least
// counts.
func buildHeapMB(t *testing.T, cfg Config, boundMB float64) float64 {
	t.Helper()
	var mb float64
	for try := 0; try < 3 && (try == 0 || mb > boundMB); try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := Build(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		if n := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); try == 0 || n < mb {
			mb = n
		}
	}
	return mb
}

// TestBuildHeap64GB holds the Go heap a 64 GB controller of each scheme
// allocates at Build to 2 MB. Every array whose length follows the device's
// capacity (page words, block rows, erase counts, mapping tables, free
// pools, victim indexes, FAST's block and log maps) is a mapped column, so
// what remains is per-plane, per-bus and per-translation-page state. Builds
// whose columns come from make (race, non-unix) would count them all.
func TestBuildHeap64GB(t *testing.T) {
	const boundMB = 2
	for _, scheme := range []string{SchemeDLOOP, SchemeDFTL, SchemeFAST, SchemePureMap} {
		mb := buildHeapMB(t, Config{CapacityGB: 64, FTL: scheme}, boundMB)
		t.Logf("%s: %.2f MB of heap", scheme, mb)
		if mb > boundMB {
			t.Errorf("building a 64 GB %s controller allocates %.2f MB of heap, want at most %d MB", scheme, mb, boundMB)
		}
	}
}

// TestBuildHeapScaled is TestBuildHeap64GB on the 0.05-scale 4 GB device
// of quick sweeps and bench's gcheavy_dloop, whose largest columns are
// 64 KiB to 1 MiB. They are mapped too, so a build allocates 0.05–0.19 MB
// of per-plane state; from the heap they would add 0.3–0.8 MB of zeroed
// spans, resident in full, to every build.
func TestBuildHeapScaled(t *testing.T) {
	const boundMB = 0.3
	geo, err := ScaledGeometryFor(4, 2, 0.03, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{SchemeDLOOP, SchemeDFTL, SchemeFAST, SchemePureMap} {
		mb := buildHeapMB(t, Config{CapacityGB: 4, PageSizeKB: 2, FTL: scheme, Geometry: &geo}, boundMB)
		t.Logf("%s: %.2f MB of heap", scheme, mb)
		if mb > boundMB {
			t.Errorf("building a 0.05-scale 4 GB %s controller allocates %.2f MB of heap, want at most %.1f MB", scheme, mb, boundMB)
		}
	}
}
