package translate

import (
	"math/rand"
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/obs"
)

func benchGeo() flash.Geometry {
	return flash.Geometry{
		Channels: 2, PackagesPerChannel: 1, ChipsPerPackage: 2,
		DiesPerChip: 1, PlanesPerDie: 2, BlocksPerPlane: 64,
		PagesPerBlock: 32, PageSize: 2048,
	}
}

// benchSpaces are the logical spaces the CMT and miss benchmarks run over:
// an 8,192-LPN scan whose table fits in L2, and 2M LPNs (an 8 MB table, a
// 4 GB device's) visited in random order, so each lookup's table word is a
// cache miss of the host.
var benchSpaces = []struct {
	name   string
	space  int
	random bool
}{
	{"8K-scan", 8192, false},
	{"2M-random", 2 << 20, true},
}

// benchLPNs returns the order the benchmarks visit a space in: 1M LPNs,
// ascending and wrapping for a scan, uniformly drawn (seed 1) otherwise.
func benchLPNs(space int, random bool) []ftl.LPN {
	rng := rand.New(rand.NewSource(1))
	lpns := make([]ftl.LPN, 1<<20)
	for i := range lpns {
		if random {
			lpns[i] = ftl.LPN(rng.Intn(space))
		} else {
			lpns[i] = ftl.LPN(i % space)
		}
	}
	return lpns
}

// BenchmarkCMT measures the cache's hot path: hit, miss+insert, eviction.
// Over 8K LPNs half the working set fits the 4,096 entries, mixing hits and
// evictions; over 2M nearly every lookup misses and evicts.
func BenchmarkCMT(b *testing.B) {
	for _, sp := range benchSpaces {
		b.Run(sp.name, func(b *testing.B) {
			c, err := NewCacheForSpace(4096, 256, make(flash.PPNMap, sp.space), sp.space/256)
			if err != nil {
				b.Fatal(err)
			}
			lpns := benchLPNs(sp.space, sp.random)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lpn := lpns[i%len(lpns)]
				if !c.Get(lpn) {
					c.Insert(lpn)
					if i%2 == 0 {
						c.Update(lpn)
					}
				}
			}
		})
	}
}

// newBenchEngine builds an engine over a space-page logical space with every
// mapping live and every translation page persisted, so steady-state misses
// pay real translation reads. The table follows the unit progression
// (PPN(lpn) = lpn) the learned policy trains on at write-back; no lookup
// reads those PPNs from the device, so they may lie beyond it.
func newBenchEngine(b *testing.B, policy Policy, space int) *Engine {
	b.Helper()
	dev, err := flash.NewDevice(benchGeo(), flash.DefaultTiming())
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewEngine(Config{
		Dev: dev, Placer: &seqPlacer{dev: dev}, Tracker: newTracker(b, dev),
		Capacity: ftl.LPN(space), CMTEntries: 4096, Policy: policy, StrideHint: 1,
	}, new(obs.Counts))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(m.Release)
	for lpn := range m.table {
		m.setPPN(ftl.LPN(lpn), flash.PPN(lpn))
	}
	for tp := 0; tp < m.TranslationPages(); tp++ {
		if _, err := m.writeBack(ftl.LPN(tp*m.EntriesPerTP()), 0); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkTranslationMiss measures the demand-paging slow path: a scan over
// twice the cache capacity, or random lookups over 2M LPNs, makes (nearly)
// every Resolve a clean-victim miss that fetches its translation page from
// flash.
func BenchmarkTranslationMiss(b *testing.B) {
	for _, sp := range benchSpaces {
		b.Run(sp.name, func(b *testing.B) {
			m := newBenchEngine(b, PolicySLRU, sp.space)
			lpns := benchLPNs(sp.space, sp.random)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Resolve(lpns[i%len(lpns)], 0); err != nil {
					b.Fatal(err)
				}
			}
			if m.counts[obs.EvTransRead] == 0 {
				b.Fatal("benchmark never missed")
			}
		})
	}
}

// BenchmarkResolvePPN measures what a page-mapping FTL's read pays for
// address translation: Resolve, then the PPN it reads. Over 2M random LPNs
// both read the LPN's mapping word, a host cache miss, once it is the only
// word that says where the mapping is cached.
func BenchmarkResolvePPN(b *testing.B) {
	for _, sp := range benchSpaces {
		b.Run(sp.name, func(b *testing.B) {
			m := newBenchEngine(b, PolicySLRU, sp.space)
			lpns := benchLPNs(sp.space, sp.random)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lpn := lpns[i%len(lpns)]
				if _, err := m.Resolve(lpn, 0); err != nil {
					b.Fatal(err)
				}
				if m.PPN(lpn) != flash.PPN(lpn) {
					b.Fatalf("lpn %d resolved to %d", lpn, m.PPN(lpn))
				}
			}
		})
	}
}

// BenchmarkLearnedLookup measures the same miss scan under the learned
// policy: the trained segments predict every mapping correctly, so each miss
// is resolved by a verified prediction instead of a translation read.
func BenchmarkLearnedLookup(b *testing.B) {
	m := newBenchEngine(b, PolicyLearned, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Resolve(ftl.LPN(i%8192), 0); err != nil {
			b.Fatal(err)
		}
	}
	if m.counts[obs.EvLearnedHit] == 0 || m.counts[obs.EvTransRead] != 0 {
		b.Fatalf("learned predictions off the fast path: %v", *m.counts)
	}
}
