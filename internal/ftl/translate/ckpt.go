package translate

import (
	"sort"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
)

// EncodeState appends an engine State to w: mapping table, CMT, GTD,
// learned segments, and counters. The CMT slab goes out entry-by-entry in
// slab order, so handles (slab indices) survive the round-trip and a
// restored cache is bit-identical to the snapshotted one, free list and
// recency links included.
func EncodeState(w *ckpt.Writer, s State) {
	flash.EncodePPNMap(w, s.table)
	encodeCacheState(w, s.cache)
	flash.EncodePPNMap(w, s.gtd)
	w.U32(uint32(len(s.learned.segs)))
	for _, segs := range s.learned.segs {
		w.U32(uint32(len(segs)))
		for _, sg := range segs {
			w.I64(int64(sg.start))
			w.I32(sg.lpnStride)
			w.I32(sg.count)
			w.I64(int64(sg.base))
			w.I64(sg.ppnDelta)
		}
	}
	w.I64(s.stats.Evictions)
	w.I64(s.stats.DirtyEvictions)
	w.I64(s.stats.TransReads)
	w.I64(s.stats.TransWrites)
	w.I64(s.stats.BatchCleaned)
	w.I64(s.stats.LazyRedirects)
	w.I64(s.stats.LearnedHits)
	w.I64(s.stats.LearnedFalse)
}

// DecodeState reads a State written by EncodeState. Every count is checked
// against the bytes left before anything is sized by it, and a learned index
// must cover exactly the GTD's translation pages, as the engine's does.
func DecodeState(r *ckpt.Reader) State {
	s := State{
		table: flash.DecodePPNMap(r),
		cache: decodeCacheState(r),
		gtd:   flash.DecodePPNMap(r),
	}
	n := r.SliceLen(4) // one u32 segment count per translation page
	if r.Err() != nil {
		return State{}
	}
	if n != 0 && n != len(s.gtd) {
		r.Failf("translate: learned index over %d translation pages, GTD has %d", n, len(s.gtd))
		return State{}
	}
	if n > 0 {
		s.learned.segs = make([][]segment, n)
		for i := range s.learned.segs {
			cnt := r.SliceLen(32) // start, stride, count, base, delta
			if r.Err() != nil {
				return State{}
			}
			if cnt == 0 {
				continue
			}
			segs := make([]segment, cnt)
			for j := range segs {
				segs[j] = segment{
					start:     ftl.LPN(r.I64()),
					lpnStride: r.I32(),
					count:     r.I32(),
					base:      flash.PPN(r.I64()),
					ppnDelta:  r.I64(),
				}
				if segs[j].lpnStride < 1 {
					r.Failf("translate: learned segment with stride %d", segs[j].lpnStride)
					return State{}
				}
			}
			s.learned.segs[i] = segs
		}
	}
	s.stats = Stats{
		Evictions:      r.I64(),
		DirtyEvictions: r.I64(),
		TransReads:     r.I64(),
		TransWrites:    r.I64(),
		BatchCleaned:   r.I64(),
		LazyRedirects:  r.I64(),
		LearnedHits:    r.I64(),
		LearnedFalse:   r.I64(),
	}
	return s
}

// cache entry flag bits.
const (
	entryDirty     = 1 << 0
	entryProtected = 1 << 1
)

func encodeCacheState(w *ckpt.Writer, s CacheState) {
	w.Int(s.n)
	w.U32(uint32(len(s.slab)))
	for _, e := range s.slab {
		w.I64(int64(e.lpn))
		w.I64(int64(e.ppn))
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
	w.I32(s.freeHead)
	// Exactly one of the two lookup indexes is live (see Cache). The map
	// variant is encoded sorted by LPN so equal caches encode identically.
	w.Bool(s.dense != nil)
	if s.dense != nil {
		w.I32s(s.dense)
	} else {
		keys := make([]ftl.LPN, 0, len(s.index))
		for k := range s.index {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		w.U32(uint32(len(keys)))
		for _, k := range keys {
			w.I64(int64(k))
			w.I32(s.index[k])
		}
	}
	encodeList(w, s.probation)
	encodeList(w, s.protected)
	w.I32s(s.tpHead)
	w.I32s(s.tpCount)
	w.I64(s.hits)
	w.I64(s.misses)
}

func decodeCacheState(r *ckpt.Reader) CacheState {
	s := CacheState{n: r.Int()}
	ns := r.SliceLen(33) // lpn, ppn, flags, four links
	if r.Err() != nil {
		return CacheState{}
	}
	s.slab = make([]entry, ns)
	for i := range s.slab {
		e := &s.slab[i]
		e.lpn = ftl.LPN(r.I64())
		if e.ppn = flash.PPN(r.I64()); !flash.Mappable(e.ppn) {
			r.Failf("translate: cached mapping %d holds ppn %d: %w", i, e.ppn, flash.ErrUnmappable)
			return CacheState{}
		}
		flags := r.U8()
		e.dirty = flags&entryDirty != 0
		e.protected = flags&entryProtected != 0
		e.prev = r.I32()
		e.next = r.I32()
		e.dPrev = r.I32()
		e.dNext = r.I32()
	}
	s.freeHead = r.I32()
	if r.Bool() {
		s.dense = r.I32s()
	} else {
		nk := r.SliceLen(12) // lpn, handle
		if r.Err() != nil {
			return CacheState{}
		}
		s.index = make(map[ftl.LPN]int32, nk)
		for i := 0; i < nk; i++ {
			k := ftl.LPN(r.I64())
			s.index[k] = r.I32()
		}
	}
	s.probation = decodeList(r)
	s.protected = decodeList(r)
	s.tpHead = r.I32s()
	s.tpCount = r.I32s()
	s.hits = r.I64()
	s.misses = r.I64()
	return s
}

func encodeList(w *ckpt.Writer, l list) {
	w.I32(l.head)
	w.I32(l.tail)
	w.Int(l.n)
}

func decodeList(r *ckpt.Reader) list {
	return list{head: r.I32(), tail: r.I32(), n: r.Int()}
}
