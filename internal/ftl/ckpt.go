package ftl

import "dloop/internal/ckpt"

// EncodeState appends the pool to w: one length-prefixed block-index slab
// per plane in queue order (so the bytes do not depend on where each ring
// starts), then the total.
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
			w.Int(q.buf[j])
		}
	}
	w.Int(f.total)
}

// DecodeState overwrites the pool with one EncodeState wrote, reusing the
// live ring buffers. Each plane may hold at most its own blocks, each named
// once, and the total must be their sum.
func (f *FreeBlocks) DecodeState(r *ckpt.Reader) {
	total := 0
	for p := range f.planes[:r.ExpectLen(len(f.planes), 4)] {
		q := &f.planes[p]
		blocks := r.AppendInts(q.buf[:0])
		if len(blocks) > len(q.buf) {
			r.Failf("ftl: plane %d lists %d free blocks of %d", p, len(blocks), len(q.buf))
			return
		}
		for _, b := range blocks {
			if b < 0 || b >= len(q.buf) {
				r.Failf("ftl: plane %d lists free block %d of %d", p, b, len(q.buf))
				return
			}
		}
		q.head, q.n = 0, len(blocks)
		total += q.n
	}
	if f.total = r.Int(); r.Err() == nil && f.total != total {
		r.Failf("ftl: free-block total %d, the planes hold %d", f.total, total)
	}
}

// EncodeState appends the tracker to w. The bucket index is a plane-major
// ragged array; each per-count bucket goes out as its own length-prefixed
// slab so empty buckets cost four bytes.
func (t *Tracker) EncodeState(w *ckpt.Writer) {
	w.I32s(t.invalid)
	w.I32s(t.inBkt)
	w.U32(uint32(len(t.buckets)))
	for _, bkts := range t.buckets {
		w.U32(uint32(len(bkts)))
		for _, bkt := range bkts {
			w.I32s(bkt)
		}
	}
	w.Ints(t.maxCount)
	w.I64s(t.closeSeq)
	w.I64(t.seq)
}

// DecodeState overwrites the tracker with one EncodeState wrote, reusing the
// live columns and bucket arrays.
func (t *Tracker) DecodeState(r *ckpt.Reader) {
	r.I32sInto(t.invalid)
	r.I32sInto(t.inBkt)
	for _, bkts := range t.buckets[:r.ExpectLen(len(t.buckets), 4)] {
		for c := range bkts[:r.ExpectLen(len(bkts), 4)] {
			bkts[c] = r.AppendI32s(bkts[c])
		}
	}
	r.IntsInto(t.maxCount)
	r.I64sInto(t.closeSeq)
	t.seq = r.I64()
}
