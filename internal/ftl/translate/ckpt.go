package translate

import (
	"slices"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
)

// EncodeState appends the engine's mutable state to w: mapping table, CMT,
// GTD, learned segments, and counters. The placer and tracker pointers are
// construction-time wiring, not state. The CMT slab goes out entry by entry
// in slab order, so handles (slab indices) survive the round trip and a
// decoded cache is bit-identical to the encoded one, free list and recency
// links included.
func (m *Engine) EncodeState(w *ckpt.Writer) {
	m.table.EncodeState(w)
	m.Cache.encodeState(w)
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
	w.I64(m.stats.TransReads)
	w.I64(m.stats.TransWrites)
	w.I64(m.stats.LearnedHits)
}

// DecodeState overwrites the engine's state with what EncodeState wrote on an
// engine of the same shape, in place. Every count is checked against the
// bytes left and the live columns before anything is written by it, and a
// learned index must cover exactly the GTD's translation pages, as the
// engine's does. A learned index from a checkpoint without one starts cold;
// one in a checkpoint for an engine without one is checked and dropped.
func (m *Engine) DecodeState(r *ckpt.Reader) {
	m.table.DecodeState(r)
	m.Cache.decodeState(r)
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
	m.stats = Stats{
		TransReads:  r.I64(),
		TransWrites: r.I64(),
		LearnedHits: r.I64(),
	}
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
	w.I32s(c.dense)
	for _, l := range []list{c.probation, c.protected} {
		w.I32(l.head)
		w.I32(l.tail)
		w.Int(l.n)
	}
	w.I32s(c.tpHead)
	w.I64(c.hits)
	w.I64(c.misses)
}

// decodeState overwrites the cache with what encodeState wrote on a cache of
// the same capacity and logical space. Every handle must name a slab entry,
// every entry an LPN of the space, and the dirty-list heads must cover its
// translation pages.
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
		if e.lpn = ftl.LPN(r.I64()); e.lpn < 0 || int64(e.lpn) >= int64(len(c.dense)) {
			r.Failf("translate: cache entry %d holds lpn %d outside a %d-page space", i, e.lpn, len(c.dense))
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
	slab := uint32(len(c.slab))
	raw := r.Raw(4 * r.ExpectLen(len(c.dense), 4))
	var buf [512]uint32
	for i := 0; i < len(raw)/4; i += len(buf) {
		chunk := buf[:min(len(buf), len(raw)/4-i)]
		ckpt.Load(chunk, raw[4*i:])
		dst := c.dense[i : i+len(chunk)]
		for j, h := range chunk {
			if h >= slab {
				handle(int32(h))
				return
			}
			dst[j] = int32(h)
		}
	}
	for _, l := range []*list{&c.probation, &c.protected} {
		*l = list{head: handle(r.I32()), tail: handle(r.I32()), n: r.Int()}
	}
	r.I32sInto(c.tpHead)
	for _, h := range c.tpHead {
		handle(h)
	}
	c.hits = r.I64()
	c.misses = r.I64()
}
