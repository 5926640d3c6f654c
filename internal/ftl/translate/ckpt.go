package translate

import (
	"slices"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/obs"
)

// EncodeState appends the engine's mutable state to w: mapping table, CMT
// and its hit and miss counts, GTD, learned segments, and the translation
// counts. The placer and tracker pointers are construction-time wiring, not
// state. The table goes out untagged, as
// flash.PPNMap.EncodeState writes it. The CMT slab goes out entry by entry
// in slab order, so handles (slab indices) survive the round trip and a
// decoded cache is bit-identical to the encoded one, free list and recency
// links included; its decoder re-tags the table.
func (m *Engine) EncodeState(w *ckpt.Writer) {
	m.Cache.encodeTable(w)
	m.Cache.encodeState(w)
	w.I64(m.counts[obs.EvCMTHit])
	w.I64(m.counts[obs.EvCMTMiss])
	m.GTD.EncodeState(w)
	var segs [][]segment
	if m.li != nil {
		segs = m.li.segs
	}
	w.U32(uint32(len(segs)))
	for _, segs := range segs {
		w.U32(uint32(len(segs)))
		for _, sg := range segs {
			w.I64(int64(sg.start))
			w.I32(sg.lpnStride)
			w.I32(sg.count)
			w.I64(int64(sg.base))
			w.I64(sg.ppnDelta)
		}
	}
	w.I64(m.counts[obs.EvTransRead])
	w.I64(m.counts[obs.EvTransWrite])
	w.I64(m.counts[obs.EvLearnedHit])
}

// DecodeState overwrites the engine's state with what EncodeState wrote on an
// engine of the same shape, in place. Every count is checked against the
// bytes left and the live columns before anything is written by it, the
// table must hold page numbers (a tagged word fails with
// flash.ErrUnmappable), and a learned index must cover exactly the GTD's
// translation pages, as the engine's does. A learned index from a
// checkpoint without one starts cold; one in a checkpoint for an engine
// without one is checked and dropped. The counts EncodeState does not
// write are the owning FTL's to zero.
func (m *Engine) DecodeState(r *ckpt.Reader) {
	m.table.DecodeState(r)
	m.Cache.decodeState(r)
	m.counts[obs.EvCMTHit] = r.I64()
	m.counts[obs.EvCMTMiss] = r.I64()
	if r.Err() == nil {
		m.Cache.link(r)
	}
	m.GTD.DecodeState(r)
	n := r.SliceLen(4) // one u32 segment count per translation page
	if r.Err() != nil {
		return
	}
	if n != 0 && n != len(m.GTD) {
		r.Failf("translate: learned index over %d translation pages, GTD has %d", n, len(m.GTD))
		return
	}
	if m.li != nil && n == 0 {
		m.li.reset()
	}
	for i := 0; i < n; i++ {
		if m.li != nil {
			m.li.segs[i] = decodeSegments(r, m.li.segs[i])
		} else {
			decodeSegments(r, nil)
		}
	}
	m.counts[obs.EvTransRead] = r.I64()
	m.counts[obs.EvTransWrite] = r.I64()
	m.counts[obs.EvLearnedHit] = r.I64()
}

// decodeSegments reads one translation page's segments onto dst[:0].
func decodeSegments(r *ckpt.Reader, dst []segment) []segment {
	cnt := r.SliceLen(32) // start, stride, count, base, delta
	dst = slices.Grow(dst[:0], cnt)
	for j := 0; j < cnt; j++ {
		sg := segment{
			start:     ftl.LPN(r.I64()),
			lpnStride: r.I32(),
			count:     r.I32(),
			base:      flash.PPN(r.I64()),
			ppnDelta:  r.I64(),
		}
		if sg.lpnStride < 1 {
			r.Failf("translate: learned segment with stride %d", sg.lpnStride)
			return dst
		}
		dst = append(dst, sg)
	}
	return dst
}

// cache entry flag bits.
const (
	entryDirty     = 1 << 0
	entryProtected = 1 << 1
)

// encodeTable appends the engine's table as flash.PPNMap.EncodeState writes
// it, reading each word through word, so a cached LPN's saved PPN goes out
// in place of its tag.
func (c *Cache) encodeTable(w *ckpt.Writer) {
	w.U32(uint32(len(c.table)))
	dst := w.Raw(8 * len(c.table))
	var buf [256]uint64
	for i := 0; i < len(c.table); i += len(buf) {
		chunk := buf[:min(len(buf), len(c.table)-i)]
		for j := range chunk {
			chunk[j] = uint64(*c.word(ftl.LPN(i + j))) - 1 // ppn+1 back to ppn; 0 to InvalidPPN
		}
		ckpt.Store(dst[8*i:], chunk)
	}
}

func (c *Cache) encodeState(w *ckpt.Writer) {
	w.Int(c.n)
	w.U32(uint32(len(c.slab)))
	for _, e := range c.slab {
		w.I64(int64(e.lpn))
		var flags uint8
		if e.dirty {
			flags |= entryDirty
		}
		if e.protected {
			flags |= entryProtected
		}
		w.U8(flags)
		w.I32(e.prev)
		w.I32(e.next)
		w.I32(e.dPrev)
		w.I32(e.dNext)
	}
	w.I32(c.freeHead)
	for _, l := range []list{c.probation, c.protected} {
		w.I32(l.head)
		w.I32(l.tail)
		w.Int(l.n)
	}
	w.I32s(c.tpHead)
}

// decodeState overwrites the cache with what encodeState wrote on a cache of
// the same capacity and logical space, after the table was decoded untagged.
// Every handle must name a slab entry, every entry an LPN of the space, and
// the dirty-list heads must cover its translation pages; link, which the
// engine calls after reading the hit and miss counts, checks the lists and
// re-tags the table.
func (c *Cache) decodeState(r *ckpt.Reader) {
	c.n = r.Int()
	handle := func(h int32) int32 {
		if h < 0 || int(h) >= len(c.slab) {
			r.Failf("translate: cache handle %d outside a %d-entry slab", h, len(c.slab))
			return 0
		}
		return h
	}
	for i := range c.slab[:r.ExpectLen(len(c.slab), 25)] { // lpn, flags, four links
		e := &c.slab[i]
		if e.lpn = ftl.LPN(r.I64()); e.lpn < 0 || int64(e.lpn) >= int64(len(c.table)) {
			r.Failf("translate: cache entry %d holds lpn %d outside a %d-page space", i, e.lpn, len(c.table))
			return
		}
		flags := r.U8()
		e.dirty = flags&entryDirty != 0
		e.protected = flags&entryProtected != 0
		e.prev = handle(r.I32())
		e.next = handle(r.I32())
		e.dPrev = handle(r.I32())
		e.dNext = handle(r.I32())
	}
	c.freeHead = handle(r.I32())
	for _, l := range []*list{&c.probation, &c.protected} {
		*l = list{head: handle(r.I32()), tail: handle(r.I32()), n: r.Int()}
	}
	r.I32sInto(c.tpHead)
	for _, h := range c.tpHead {
		handle(h)
	}
}

// link walks the decoded lists and tags the table word of each live entry.
// The two recency lists hold the live entries: each runs from its head to
// its tail over exactly its count, with back links and segment flags that
// agree, and together they hold n entries of distinct LPNs. The free list
// holds the other capacity-n handles, none live, and the dirty lists hold
// exactly the live dirty entries, each under its own translation page, with
// back links that agree. A recency or free walk stops after as many steps
// as the slab has entries and a dirty walk once it has seen every dirty
// entry, so a cyclic list ends as a wrong count or a broken link.
func (c *Cache) link(r *ckpt.Reader) {
	live, dirty := 0, 0
	for seg, l := range []list{c.probation, c.protected} {
		k, prev := 0, int32(0)
		for h := l.head; h != 0 && k < len(c.slab); h = c.slab[h].next {
			e := &c.slab[h]
			if e.prev != prev || e.protected != (seg == 1) {
				r.Failf("translate: recency list %d breaks at entry %d", seg, h)
				return
			}
			w := c.table[e.lpn]
			if w&cachedTag != 0 {
				r.Failf("translate: cache entries %d and %d both hold lpn %d", w&^cachedTag, h, e.lpn)
				return
			}
			e.word = w
			c.table[e.lpn] = cachedTag | uint32(h)
			if e.dirty {
				dirty++
			}
			k, prev = k+1, h
		}
		if k != l.n || prev != l.tail {
			r.Failf("translate: recency list %d holds %d entries ending at %d, want %d ending at %d", seg, k, prev, l.n, l.tail)
			return
		}
		live += k
	}
	if live != c.n {
		r.Failf("translate: recency lists hold %d entries, cache count %d", live, c.n)
		return
	}
	free := 0
	for h := c.freeHead; h != 0 && free < len(c.slab); h = c.slab[h].next {
		if c.handle(c.slab[h].lpn) == h {
			r.Failf("translate: free list reaches live entry %d", h)
			return
		}
		free++
	}
	if free != c.capacity-live {
		r.Failf("translate: free list holds %d entries, want %d", free, c.capacity-live)
		return
	}
	for tp, head := range c.tpHead {
		prev := int32(0)
		for h := head; h != 0; h = c.slab[h].dNext {
			e := &c.slab[h]
			if dirty == 0 || !e.dirty || c.handle(e.lpn) != h || c.tvpn(e.lpn) != int64(tp) || e.dPrev != prev {
				r.Failf("translate: dirty list of translation page %d breaks at entry %d", tp, h)
				return
			}
			dirty, prev = dirty-1, h
		}
	}
	if dirty != 0 {
		r.Failf("translate: %d dirty entries on no dirty list", dirty)
	}
}
