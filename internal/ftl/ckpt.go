package ftl

import (
	"encoding/binary"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
)

// EncodeState appends the pool to w: one length-prefixed block-index slab
// per plane in queue order (so the bytes do not depend on where each ring
// starts).
func (f *FreeBlocks) EncodeState(w *ckpt.Writer) {
	w.U32(uint32(len(f.planes)))
	for p := range f.planes {
		q := &f.planes[p]
		w.U32(uint32(q.n))
		for i := 0; i < q.n; i++ {
			j := q.head + i
			if j >= len(q.buf) {
				j -= len(q.buf)
			}
			w.Int(int(q.buf[j]))
		}
	}
}

// DecodeState overwrites the pool with one EncodeState wrote, reusing the
// live ring buffers, and recounts the total. Each plane may list at most as
// many blocks as it has, each one of its own, listed once and erased on dev,
// which must be decoded first.
func (f *FreeBlocks) DecodeState(r *ckpt.Reader, dev *flash.Device) {
	f.total = 0
	var seen []uint64 // one plane's listed blocks, a bit each
	var blocks []int  // one plane's list as written, checked before it is narrowed
	for p := range f.planes[:r.ExpectLen(len(f.planes), 4)] {
		q := &f.planes[p]
		blocks = r.AppendInts(blocks[:0])
		if len(blocks) > len(q.buf) {
			r.Failf("ftl: plane %d lists %d free blocks of %d", p, len(blocks), len(q.buf))
			return
		}
		if seen == nil {
			seen = make([]uint64, (len(q.buf)+63)/64)
		}
		clear(seen)
		for i, b := range blocks {
			pb := flash.PlaneBlock{Plane: p, Block: b}
			switch {
			case b < 0 || b >= len(q.buf):
				r.Failf("ftl: plane %d lists free block %d of %d", p, b, len(q.buf))
				return
			case seen[b/64]&(1<<(b%64)) != 0:
				r.Failf("ftl: free block %v is listed twice", pb)
				return
			case dev.Block(pb).NextWrite != 0:
				r.Failf("ftl: free block %v is not erased on the device (%d pages written)", pb, dev.Block(pb).NextWrite)
				return
			}
			seen[b/64] |= 1 << (b % 64)
			q.buf[i] = int32(b)
		}
		q.head, q.n = 0, len(blocks)
		f.total += q.n
	}
}

// EncodeState appends the tracker to w: per plane, a count and then its
// candidates in bucket order, each as its in-plane block (int32) and its
// close sequence (int64); then the close counter. Neither the buckets nor
// the counts are written: a candidate's bucket is its block's invalid count
// on the device, from which DecodeState rebuilds the index.
func (t *Tracker) EncodeState(w *ckpt.Writer) {
	w.U32(uint32(len(t.buckets)))
	for p, bkts := range t.buckets {
		n := 0
		for _, bkt := range bkts {
			n += len(bkt)
		}
		w.U32(uint32(n))
		dst := w.Raw(12 * n)
		for _, bkt := range bkts {
			for _, b := range bkt {
				seq := t.closeSeq[t.geo.BlockIndex(flash.PlaneBlock{Plane: p, Block: int(b)})]
				binary.LittleEndian.PutUint32(dst, uint32(b))
				binary.LittleEndian.PutUint64(dst[4:], uint64(seq))
				dst = dst[12:]
			}
		}
	}
	w.I64(t.seq)
}

// DecodeState overwrites the tracker with one EncodeState wrote, reusing the
// live bucket arrays, and files each candidate under its block's invalid
// count on the device, so the device must be decoded first. A listed block
// must lie on its plane, be listed once and be full on the device: the
// owner closes a block only when its write point has used it up.
func (t *Tracker) DecodeState(r *ckpt.Reader) {
	clear(t.inBkt)
	for p, bkts := range t.buckets {
		for c := range bkts {
			bkts[c] = bkts[c][:0]
		}
		t.maxCount[p] = 0
	}
	ppb := t.geo.PagesPerBlock
	for p := range t.buckets[:r.ExpectLen(len(t.buckets), 4)] {
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
			t.closeSeq[t.geo.BlockIndex(pb)] = seq
			t.addBucket(pb, t.dev.Block(pb).Invalid)
		}
	}
	t.seq = r.I64()
}
