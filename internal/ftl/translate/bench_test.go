package translate

import (
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
)

func benchGeo() flash.Geometry {
	return flash.Geometry{
		Channels: 2, PackagesPerChannel: 1, ChipsPerPackage: 2,
		DiesPerChip: 1, PlanesPerDie: 2, BlocksPerPlane: 64,
		PagesPerBlock: 32, PageSize: 2048,
	}
}

// BenchmarkCMT measures the cache's hot path: hit, miss+insert, eviction.
func BenchmarkCMT(b *testing.B) {
	c, err := NewCacheForSpace(4096, 256, 8192, 8192/256)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lpn := ftl.LPN(i % 8192) // 50% working set over capacity: mixes hits and evictions
		if !c.Get(lpn) {
			c.Insert(lpn)
			if i%2 == 0 {
				c.Update(lpn)
			}
		}
	}
}

// newBenchEngine builds an engine over an 8192-page logical space with every
// mapping live and every translation page persisted, so steady-state misses
// pay real translation reads. The table follows the unit progression
// (PPN(lpn) = lpn) the learned policy trains on at write-back.
func newBenchEngine(b *testing.B, policy Policy) *Engine {
	b.Helper()
	dev, err := flash.NewDevice(benchGeo(), flash.DefaultTiming())
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewEngine(Config{
		Dev: dev, Placer: &seqPlacer{dev: dev}, Tracker: ftl.NewTracker(benchGeo()),
		Capacity: 8192, CMTEntries: 4096, Policy: policy, StrideHint: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for lpn := range m.table {
		m.table.Set(int64(lpn), flash.PPN(lpn))
	}
	for tp := 0; tp < m.TranslationPages(); tp++ {
		if _, err := m.writeBack(ftl.LPN(tp*m.EntriesPerTP()), 0); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkTranslationMiss measures the demand-paging slow path: a scan over
// twice the cache capacity makes every Resolve a clean-victim miss that
// fetches its translation page from flash.
func BenchmarkTranslationMiss(b *testing.B) {
	m := newBenchEngine(b, PolicySLRU)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Resolve(ftl.LPN(i%8192), 0); err != nil {
			b.Fatal(err)
		}
	}
	if m.Stats().TransReads == 0 {
		b.Fatal("benchmark never missed")
	}
}

// BenchmarkLearnedLookup measures the same miss scan under the learned
// policy: the trained segments predict every mapping correctly, so each miss
// is resolved by a verified prediction instead of a translation read.
func BenchmarkLearnedLookup(b *testing.B) {
	m := newBenchEngine(b, PolicyLearned)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Resolve(ftl.LPN(i%8192), 0); err != nil {
			b.Fatal(err)
		}
	}
	if m.Stats().LearnedHits == 0 || m.Stats().TransReads != 0 {
		b.Fatalf("learned predictions off the fast path: %+v", m.Stats())
	}
}
