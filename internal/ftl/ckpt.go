package ftl

import (
	"encoding/binary"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
)

// EncodeState appends the pool to w: one length-prefixed block-index slab
// per plane in queue order, never-used blocks first (so the bytes depend
// neither on where each ring starts nor on which blocks are implicit).
func (f *FreeBlocks) EncodeState(w *ckpt.Writer) {
	w.U32(uint32(len(f.planes)))
	for p := range f.planes {
		q := &f.planes[p]
		n := q.size()
		w.U32(uint32(n))
		for i := range n {
			w.Int(q.at(i))
		}
	}
}

// DecodeState overwrites the pool with one EncodeState wrote and recounts
// the total. Each plane may list at most as many blocks as it has, each one
// of its own, listed once and erased on dev, which must be decoded first. A
// list that opens with the plane's last blocks in order, x through
// BlocksPerPlane-1, keeps them implicit, as a fresh pool holds them; only
// the blocks after them are written to the ring.
func (f *FreeBlocks) DecodeState(r *ckpt.Reader, dev *flash.Device) {
	f.total = 0
	var seen []uint64 // one plane's listed blocks, a bit each
	var blocks []int  // one plane's list as written, checked before it is narrowed
	for p := range f.planes[:r.ExpectLen(len(f.planes), 4)] {
		q := &f.planes[p]
		bpp := len(q.ring)
		blocks = r.AppendInts(blocks[:0])
		if len(blocks) > bpp {
			r.Failf("ftl: plane %d lists %d free blocks of %d", p, len(blocks), bpp)
			return
		}
		if seen == nil {
			seen = make([]uint64, (bpp+63)/64)
		}
		clear(seen)
		for _, b := range blocks {
			pb := flash.PlaneBlock{Plane: p, Block: b}
			switch {
			case b < 0 || b >= bpp:
				r.Failf("ftl: plane %d lists free block %d of %d", p, b, bpp)
				return
			case seen[b/64]&(1<<(b%64)) != 0:
				r.Failf("ftl: free block %v is listed twice", pb)
				return
			case dev.Block(pb).NextWrite != 0:
				r.Failf("ftl: free block %v is not erased on the device (%d pages written)", pb, dev.Block(pb).NextWrite)
				return
			}
			seen[b/64] |= 1 << (b % 64)
		}
		q.fresh, q.head, q.n = bpp, 0, 0
		recycled := blocks
		if len(blocks) > 0 && freshRun(blocks, bpp) {
			q.fresh = blocks[0]
			recycled = blocks[bpp-q.fresh:]
		}
		for _, b := range recycled {
			q.put(b)
		}
		f.total += q.size()
	}
}

// freshRun reports whether blocks opens with blocks[0], blocks[0]+1, ...,
// bpp-1: the never-used blocks of a plane of bpp, as a fresh pool queues
// them.
func freshRun(blocks []int, bpp int) bool {
	x := blocks[0]
	if len(blocks) < bpp-x {
		return false
	}
	for i, b := range blocks[:bpp-x] {
		if b != x+i {
			return false
		}
	}
	return true
}

// EncodeState appends the tracker to w: per plane, a count and then its
// candidates in bucket order, each as its in-plane block (int32) and its
// close sequence (int64, widened from the 32 bits kept); then the close
// counter. Neither the buckets nor the counts are written: a candidate's
// bucket is its block's invalid count on the device, from which DecodeState
// rebuilds the index.
func (t *Tracker) EncodeState(w *ckpt.Writer) {
	w.U32(uint32(len(t.maxCount)))
	for p := range t.maxCount {
		base := 2 * int(t.geo.BlockIndex(flash.PlaneBlock{Plane: p}))
		// each calls fn for the plane's candidates in bucket order.
		each := func(fn func(b uint32)) {
			for c := 0; c <= t.geo.PagesPerBlock; c++ {
				for b := t.ends[t.bucket(p, c)]; b != 0; b = t.links[base+2*int(b-1)+1] {
					fn(b - 1)
				}
			}
		}
		n := 0
		each(func(uint32) { n++ })
		w.U32(uint32(n))
		dst := w.Raw(12 * n)
		each(func(b uint32) {
			binary.LittleEndian.PutUint32(dst, b)
			binary.LittleEndian.PutUint64(dst[4:], uint64(t.seq-t.Age(flash.PlaneBlock{Plane: p, Block: int(b)})))
			dst = dst[12:]
		})
	}
	w.I64(t.seq)
}

// DecodeState overwrites the tracker with one EncodeState wrote, filing each
// candidate under its block's invalid count on the device, so the device
// must be decoded first. A listed block must lie on its plane, be listed
// once and be full on the device: the owner closes a block only when its
// write point has used it up. Its close sequence must be at most the close
// counter and fewer than 2^32 closes behind it, the span the 32 bits kept
// of it hold exactly. Only the entries of the blocks that were or become
// candidates are written.
func (t *Tracker) DecodeState(r *ckpt.Reader) {
	for p := range t.maxCount {
		for c := 0; c <= t.geo.PagesPerBlock; c++ {
			for t.ends[t.bucket(p, c)+1] != 0 {
				t.delBucket(flash.PlaneBlock{Plane: p, Block: int(t.ends[t.bucket(p, c)+1] - 1)}, c)
			}
		}
		t.maxCount[p] = 0
	}
	ppb := t.geo.PagesPerBlock
	listed := false
	var lo, hi int64 // the least and greatest close sequence listed
	for p := range t.maxCount[:r.ExpectLen(len(t.maxCount), 4)] {
		n := r.SliceLen(12)
		if n > t.geo.BlocksPerPlane {
			r.Failf("ftl: plane %d lists %d candidates of %d blocks", p, n, t.geo.BlocksPerPlane)
			return
		}
		for range n {
			pb := flash.PlaneBlock{Plane: p, Block: int(r.I32())}
			seq := r.I64()
			switch {
			case r.Err() != nil:
				return
			case pb.Block < 0 || pb.Block >= t.geo.BlocksPerPlane:
				r.Failf("ftl: candidate %v is off the device", pb)
				return
			case t.Candidate(pb):
				r.Failf("ftl: candidate %v is listed twice", pb)
				return
			case t.dev.Block(pb).NextWrite != ppb:
				r.Failf("ftl: candidate %v is not full on the device (%d of %d pages)", pb, t.dev.Block(pb).NextWrite, ppb)
				return
			}
			if !listed || seq < lo {
				lo = seq
			}
			if !listed || seq > hi {
				hi = seq
			}
			listed = true
			t.closeSeq[t.geo.BlockIndex(pb)] = uint32(seq)
			t.addBucket(pb, t.dev.Block(pb).Invalid)
		}
	}
	t.seq = r.I64()
	if listed && r.Err() == nil && (hi > t.seq || uint64(t.seq)-uint64(lo) >= 1<<32) {
		r.Failf("ftl: candidates closed at %d to %d against a close counter of %d", lo, hi, t.seq)
	}
}
