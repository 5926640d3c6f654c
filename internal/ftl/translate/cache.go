package translate

import (
	"fmt"

	"dloop/internal/flash"
	"dloop/internal/ftl"
)

// Cache is the Cached Mapping Table: the small SRAM cache of hot
// logical-to-physical mappings that DFTL introduced and DLOOP reuses
// (§III.D, algorithm line 6: "select a victim entry for eviction using
// segmented LRU"). It models which mappings are resident and dirty, which
// is what decides the translation traffic a lookup costs; the PPNs
// themselves are read from the engine's table.
//
// The cache has no index of its own: it keeps its handles in the engine's
// table. A cached LPN's table word is cachedTag|handle, and its entry holds
// the word that Insert displaced (ppn+1) until eviction puts it back, so a
// lookup reads one word, the same one Engine.PPN reads.
//
// In its default segmented-LRU mode it keeps a probationary segment for
// entries seen once and a protected segment for entries hit again; victims
// come from the probationary tail, so scan-like bursts cannot flush the hot
// set.
//
// The cache also indexes dirty entries by translation page, supporting
// DFTL's batch-update optimization: when a dirty victim forces a
// translation-page write-back, every other dirty mapping belonging to the
// same translation page is written back (and cleaned) in the same
// read-modify-write.
//
// Entries live in a slab of values addressed by int32 handles (0 is the nil
// handle), recycled through a free list, so the cache performs no per-entry
// heap allocation in steady state. Recency lists and the per-translation-page
// dirty index are intrusive: each entry carries its own links, and dirty
// membership costs one list splice instead of a map-of-maps insertion.
type Cache struct {
	capacity int
	protCap  int // capacity of the protected segment
	epp      int // mapping entries per translation page
	n        int // cached entries

	slab     []entry // 1-based; slab[0] is the nil sentinel
	freeHead int32   // free-list head, linked through entry.next

	// table is the engine's mapping table, in flash.PPNMap's form except
	// that a cached LPN's word is cachedTag|handle.
	table flash.PPNMap

	probation list // MRU at head
	protected list // MRU at head

	tpHead []int32 // tvpn -> head of the intrusive dirty list
}

// Entry is the externally visible form of a cache entry.
type Entry struct {
	LPN   ftl.LPN
	Dirty bool
}

type entry struct {
	lpn          ftl.LPN
	word         uint32 // lpn's table word while it is cached: ppn+1
	dirty        bool
	protected    bool
	prev, next   int32 // recency-list links (next doubles as the free-list link)
	dPrev, dNext int32 // per-translation-page dirty-list links
}

type list struct {
	head, tail int32
	n          int
}

func (c *Cache) pushFront(l *list, h int32) {
	e := &c.slab[h]
	e.prev = 0
	e.next = l.head
	if l.head != 0 {
		c.slab[l.head].prev = h
	}
	l.head = h
	if l.tail == 0 {
		l.tail = h
	}
	l.n++
}

func (c *Cache) listRemove(l *list, h int32) {
	e := &c.slab[h]
	if e.prev != 0 {
		c.slab[e.prev].next = e.next
	} else {
		l.head = e.next
	}
	if e.next != 0 {
		c.slab[e.next].prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = 0, 0
	l.n--
}

// cachedTag marks a table word that holds a cache handle. A stored ppn+1
// never has it: device page numbers stay below 2^31-2.
const cachedTag = 1 << 31

// NewCacheForSpace returns a segmented-LRU cache holding at most capacity
// entries, with the protected segment getting half, in front of the logical
// space of table, grouped into translationPages translation pages. The cache
// tags the words of the LPNs it holds, so table is then read through word.
// entriesPerPage is the number of mapping entries per translation page, used
// to group dirty entries for batched write-back. Capacity must be at least 2
// and entriesPerPage, the table's length and translationPages at least 1.
func NewCacheForSpace(capacity, entriesPerPage int, table flash.PPNMap, translationPages int) (*Cache, error) {
	if len(table) < 1 || translationPages < 1 {
		return nil, fmt.Errorf("translate: cache space %d / %d translation pages too small", len(table), translationPages)
	}
	if capacity < 2 {
		return nil, fmt.Errorf("translate: cache capacity %d too small", capacity)
	}
	if entriesPerPage < 1 {
		return nil, fmt.Errorf("translate: entries per translation page %d too small", entriesPerPage)
	}
	c := &Cache{
		capacity: capacity,
		protCap:  capacity / 2,
		epp:      entriesPerPage,
		slab:     make([]entry, capacity+1),
		table:    table,
		tpHead:   make([]int32, translationPages),
	}
	// Chain every handle onto the free list.
	for h := 1; h <= capacity; h++ {
		c.slab[h].next = int32(h) + 1
	}
	c.slab[capacity].next = 0
	c.freeHead = 1
	return c, nil
}

func (c *Cache) alloc() int32 {
	h := c.freeHead
	c.freeHead = c.slab[h].next
	c.slab[h] = entry{}
	return h
}

func (c *Cache) release(h int32) {
	c.slab[h].next = c.freeHead
	c.freeHead = h
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return c.n }

func (c *Cache) tvpn(lpn ftl.LPN) int64 { return int64(lpn) / int64(c.epp) }

func (c *Cache) markDirty(h int32) {
	e := &c.slab[h]
	tp := c.tvpn(e.lpn)
	e.dPrev = 0
	e.dNext = c.tpHead[tp]
	if e.dNext != 0 {
		c.slab[e.dNext].dPrev = h
	}
	c.tpHead[tp] = h
}

func (c *Cache) unmarkDirty(h int32) {
	e := &c.slab[h]
	tp := c.tvpn(e.lpn)
	if e.dPrev != 0 {
		c.slab[e.dPrev].dNext = e.dNext
	} else {
		c.tpHead[tp] = e.dNext
	}
	if e.dNext != 0 {
		c.slab[e.dNext].dPrev = e.dPrev
	}
	e.dPrev, e.dNext = 0, 0
}

// handle returns lpn's slab handle, or 0 if lpn is not cached.
func (c *Cache) handle(lpn ftl.LPN) int32 {
	if w := c.table[lpn]; w&cachedTag != 0 {
		return int32(w &^ cachedTag)
	}
	return 0
}

// word returns where lpn's ppn+1 is held: its table word, or its entry's
// copy while it is cached. Every read or write of a PPN goes through it.
func (c *Cache) word(lpn ftl.LPN) *uint32 {
	if h := c.handle(lpn); h != 0 {
		return &c.slab[h].word
	}
	return &c.table[lpn]
}

// Get reports whether a mapping is cached, updating recency and segment
// membership on a hit.
func (c *Cache) Get(lpn ftl.LPN) bool {
	h := c.handle(lpn)
	if h == 0 {
		return false
	}
	c.touch(h)
	return true
}

func (c *Cache) touch(h int32) {
	if c.slab[h].protected {
		c.listRemove(&c.protected, h)
		c.pushFront(&c.protected, h)
		return
	}
	// Promote probation -> protected; demote protected LRU if over capacity.
	c.listRemove(&c.probation, h)
	c.slab[h].protected = true
	c.pushFront(&c.protected, h)
	for c.protected.n > c.protCap {
		lru := c.protected.tail
		c.listRemove(&c.protected, lru)
		c.slab[lru].protected = false
		c.pushFront(&c.probation, lru)
	}
}

// Insert adds a mapping that is not currently cached, clean. If the cache is
// full it evicts the LRU victim (in segmented mode, the segmented-LRU victim)
// and returns it with evicted=true; the caller must write the victim back to
// its translation page if it is dirty. lpn must not be cached: the new entry
// saves lpn's table word as its PPN, and a cached lpn's word is a tag.
// Engine.Resolve, the only caller, inserts only after Get missed.
func (c *Cache) Insert(lpn ftl.LPN) (victim Entry, evicted bool) {
	if c.n >= c.capacity {
		victim, evicted = c.evict()
	}
	h := c.alloc()
	e := &c.slab[h]
	e.lpn = lpn
	e.word = c.table[lpn]
	c.table[lpn] = cachedTag | uint32(h)
	c.pushFront(&c.probation, h)
	c.n++
	return victim, evicted
}

func (c *Cache) evict() (Entry, bool) {
	var h int32
	if c.probation.tail != 0 {
		h = c.probation.tail
		c.listRemove(&c.probation, h)
	} else if c.protected.tail != 0 {
		h = c.protected.tail
		c.listRemove(&c.protected, h)
	} else {
		return Entry{}, false
	}
	e := &c.slab[h]
	if e.dirty {
		c.unmarkDirty(h)
	}
	c.table[e.lpn] = e.word
	c.n--
	victim := Entry{LPN: e.lpn, Dirty: e.dirty}
	c.release(h)
	return victim, true
}

// Update records that a cached mapping changed: the entry stays dirty until
// its translation page is written back. It reports whether the entry was
// present.
func (c *Cache) Update(lpn ftl.LPN) bool {
	h := c.handle(lpn)
	if h == 0 {
		return false
	}
	if e := &c.slab[h]; !e.dirty {
		e.dirty = true
		c.markDirty(h)
	}
	return true
}

// CleanPage marks every cached dirty mapping of translation page tvpn
// clean. Engine.writeBack calls it after the read-modify-write that
// persisted them all at once (DFTL's batch update).
func (c *Cache) CleanPage(tvpn int64) {
	if tvpn < 0 || tvpn >= int64(len(c.tpHead)) {
		return
	}
	for h := c.tpHead[tvpn]; h != 0; {
		e := &c.slab[h]
		e.dirty = false
		h = e.dNext
		e.dPrev, e.dNext = 0, 0
	}
	c.tpHead[tvpn] = 0
}
