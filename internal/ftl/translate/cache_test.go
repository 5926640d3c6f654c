package translate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dloop/internal/flash"
	"dloop/internal/ftl"
)

// testSpace is the logical space of the caches below: it covers every LPN
// the tests insert.
const testSpace = 128

// newTestCache builds a cache over testSpace logical pages.
func newTestCache(t *testing.T, capacity, entriesPerPage int) *Cache {
	t.Helper()
	c, err := NewCacheForSpace(capacity, entriesPerPage, make(flash.PPNMap, testSpace), (testSpace+entriesPerPage-1)/entriesPerPage)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheRejectsBadConfig(t *testing.T) {
	if _, err := NewCacheForSpace(1, 256, make(flash.PPNMap, testSpace), 1); err == nil {
		t.Error("capacity 1 accepted")
	}
	if _, err := NewCacheForSpace(8, 0, make(flash.PPNMap, testSpace), 1); err == nil {
		t.Error("entriesPerPage 0 accepted")
	}
	if _, err := NewCacheForSpace(8, 256, nil, 1); err == nil {
		t.Error("empty logical space accepted")
	}
	if _, err := NewCacheForSpace(8, 256, make(flash.PPNMap, testSpace), 0); err == nil {
		t.Error("zero translation pages accepted")
	}
}

func TestCacheBasicHitMiss(t *testing.T) {
	c := newTestCache(t, 4, 256)
	if c.Get(1) {
		t.Fatal("hit on empty cache")
	}
	c.Insert(1)
	if !c.Get(1) {
		t.Fatal("miss on a cached mapping")
	}
	if !c.Contains(1) || c.Contains(2) {
		t.Fatal("Contains wrong")
	}
	if c.Len() != 1 || c.capacity != 4 {
		t.Fatal("len/capacity wrong")
	}
}

func TestCacheSegmentedLRUEviction(t *testing.T) {
	c := newTestCache(t, 4, 256)
	// Fill with 4 entries; touch 1 and 2 so they get protected.
	for i := ftl.LPN(1); i <= 4; i++ {
		c.Insert(i)
	}
	c.Get(1)
	c.Get(2)
	// Inserting 5 must evict the probationary LRU, which is 3 (4 is more
	// recent in probation; 1,2 are protected).
	victim, evicted := c.Insert(5)
	if !evicted || victim.LPN != 3 {
		t.Fatalf("victim %+v evicted=%v, want lpn 3", victim, evicted)
	}
	// Scan through many one-shot entries: protected 1 and 2 must survive.
	for i := ftl.LPN(100); i < 120; i++ {
		c.Insert(i)
	}
	if !c.Contains(1) || !c.Contains(2) {
		t.Fatal("protected entries were flushed by a scan")
	}
}

func TestCacheEvictFromProtectedWhenProbationEmpty(t *testing.T) {
	c := newTestCache(t, 2, 256)
	c.Insert(1)
	c.Insert(2)
	c.Get(1)
	c.Get(2) // both promoted; probation empty (protCap=1 demotes one back)
	// protCap = 1, so promoting 2 demoted 1 back to probation.
	victim, evicted := c.Insert(3)
	if !evicted {
		t.Fatal("no eviction at capacity")
	}
	if victim.LPN != 1 {
		t.Fatalf("victim %d, want demoted 1", victim.LPN)
	}
}

func TestCacheDirtyTracking(t *testing.T) {
	c := newTestCache(t, 8, 4) // tvpn = lpn/4
	c.Insert(0)
	c.Update(0)
	c.Insert(1)
	c.Update(1)
	c.Insert(5) // different translation page
	c.Update(5)
	if got := c.DirtyInPage(0); got != 2 {
		t.Fatalf("DirtyInPage(0) = %d, want 2", got)
	}
	if got := c.DirtyInPage(1); got != 1 {
		t.Fatalf("DirtyInPage(1) = %d, want 1", got)
	}
	c.CleanPage(0)
	if c.DirtyInPage(0) != 0 {
		t.Fatal("page 0 still dirty after CleanPage")
	}
	if c.DirtyInPage(1) != 1 {
		t.Fatal("CleanPage(0) cleaned page 1")
	}
}

func TestCacheUpdateMissing(t *testing.T) {
	c := newTestCache(t, 4, 256)
	if c.Update(9) {
		t.Fatal("Update of missing entry returned true")
	}
}

func TestCacheEvictedDirtyEntryLeavesIndex(t *testing.T) {
	c := newTestCache(t, 2, 4)
	c.Insert(0)
	c.Update(0)
	c.Insert(1)
	c.Update(1)
	victim, evicted := c.Insert(2)
	if !evicted || !victim.Dirty {
		t.Fatalf("expected dirty eviction, got %+v %v", victim, evicted)
	}
	// The evicted entry must no longer count as a cached dirty mapping.
	want := 2 - 1 // two dirty inserted in tvpn 0, one evicted
	if got := c.DirtyInPage(0); got != want {
		t.Fatalf("DirtyInPage(0) = %d, want %d", got, want)
	}
}

func TestCacheCleanPageNoDirtyEntries(t *testing.T) {
	c := newTestCache(t, 8, 4)
	c.Insert(0)
	c.Insert(1)
	c.CleanPage(0)
	// Translation pages the cache has never seen, including out of range.
	c.CleanPage(3)
	c.CleanPage(-1)
	c.CleanPage(1 << 40)
	if c.DirtyInPage(0) != 0 || c.Len() != 2 || !c.Contains(0) || !c.Contains(1) {
		t.Fatal("CleanPage of clean or unknown pages changed the cache")
	}
}

// TestCacheEvictDirectlyWithEmptyProbation drives evict() with every entry in
// the protected segment: the victim must come from the protected tail and its
// dirty accounting must be unwound.
func TestCacheEvictDirectlyWithEmptyProbation(t *testing.T) {
	c := newTestCache(t, 4, 4)
	c.Insert(0)
	c.Update(0)
	c.Insert(1)
	c.Get(0)
	c.Get(1) // both promoted: probation is empty, protected holds {1, 0}
	if c.probation.n != 0 || c.protected.n != 2 {
		t.Fatalf("segments: probation %d protected %d, want 0/2", c.probation.n, c.protected.n)
	}
	victim, evicted := c.evict()
	if !evicted || victim.LPN != 0 || !victim.Dirty {
		t.Fatalf("victim %+v %v, want dirty lpn 0 from protected tail", victim, evicted)
	}
	if c.DirtyInPage(0) != 0 {
		t.Fatal("evicted protected entry still counted dirty")
	}
	if c.Len() != 1 || c.Contains(0) {
		t.Fatal("evicted entry still cached")
	}
}

func TestCacheUpdatePromotesCleanToDirtyOnce(t *testing.T) {
	c := newTestCache(t, 8, 4)
	c.Insert(2)
	if c.DirtyInPage(0) != 0 {
		t.Fatal("clean insert counted dirty")
	}
	if !c.Update(2) {
		t.Fatal("Update of cached entry returned false")
	}
	if got := c.DirtyInPage(0); got != 1 {
		t.Fatalf("DirtyInPage after clean->dirty = %d, want 1", got)
	}
	// Re-dirtying an already-dirty entry must not double-count it.
	c.Update(2)
	if got := c.DirtyInPage(0); got != 1 {
		t.Fatalf("DirtyInPage after second dirty Update = %d, want 1", got)
	}
	if c.CleanPage(0); c.DirtyInPage(0) != 0 {
		t.Fatal("CleanPage left the single entry dirty")
	}
	// A cleaned entry is dirtied again by the next Update.
	if c.Update(2); c.DirtyInPage(0) != 1 {
		t.Fatal("Update after CleanPage left the entry clean")
	}
}

// Property: the cache never exceeds capacity, Get hits exactly the mappings
// inserted and not yet evicted, and the dirty index matches entry dirty
// flags.
func TestCacheModelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newTestCache(t, 8, 4)
		cached := map[ftl.LPN]bool{} // inserted and not yet evicted
		dirty := map[ftl.LPN]bool{}
		for i := 0; i < 500; i++ {
			lpn := ftl.LPN(rng.Intn(20))
			switch rng.Intn(3) {
			case 0:
				if c.Get(lpn) != cached[lpn] {
					return false
				}
			case 1:
				if c.Contains(lpn) {
					c.Update(lpn)
					dirty[lpn] = true
				} else {
					if victim, evicted := c.Insert(lpn); evicted {
						delete(cached, victim.LPN)
						delete(dirty, victim.LPN)
					}
				}
				cached[lpn] = true
			case 2:
				tvpn := int64(rng.Intn(5))
				c.CleanPage(tvpn)
				for l := range dirty {
					if int64(l)/4 == tvpn {
						delete(dirty, l)
					}
				}
			}
			if c.Len() > c.capacity {
				return false
			}
		}
		// Dirty index agrees with the model for all cached entries.
		for tvpn := int64(0); tvpn < 5; tvpn++ {
			n := 0
			for l, d := range dirty {
				if d && c.Contains(l) && int64(l)/4 == tvpn {
					n++
				}
			}
			if c.DirtyInPage(tvpn) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Contains reports whether a mapping is cached without perturbing recency or
// hit statistics (used by garbage collection).
func (c *Cache) Contains(lpn ftl.LPN) bool { return c.handle(lpn) != 0 }

// DirtyInPage returns how many cached dirty mappings belong to the
// translation page tvpn.
func (c *Cache) DirtyInPage(tvpn int64) int {
	if tvpn < 0 || tvpn >= int64(len(c.tpHead)) {
		return 0
	}
	n := 0
	for h := c.tpHead[tvpn]; h != 0; h = c.slab[h].dNext {
		n++
	}
	return n
}
