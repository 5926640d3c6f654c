package ftl

import "dloop/internal/ckpt"

// EncodeFreeBlocksState appends a FreeBlocksState to w: one length-prefixed
// block-index slab per plane, then the total.
func EncodeFreeBlocksState(w *ckpt.Writer, s FreeBlocksState) {
	w.U32(uint32(len(s.perPlane)))
	for _, blocks := range s.perPlane {
		w.Ints(blocks)
	}
	w.Int(s.total)
}

// DecodeFreeBlocksState reads a FreeBlocksState written by
// EncodeFreeBlocksState.
func DecodeFreeBlocksState(r *ckpt.Reader) FreeBlocksState {
	s := FreeBlocksState{perPlane: make([][]int, r.SliceLen(4))}
	for i := range s.perPlane {
		s.perPlane[i] = r.Ints()
	}
	s.total = r.Int()
	return s
}

// EncodeTrackerState appends a TrackerState to w. The bucket index is a
// plane-major ragged array; each per-count bucket goes out as its own
// length-prefixed slab so empty buckets cost four bytes.
func EncodeTrackerState(w *ckpt.Writer, s TrackerState) {
	w.I32s(s.invalid)
	w.I32s(s.inBkt)
	w.U32(uint32(len(s.buckets)))
	for _, bkts := range s.buckets {
		w.U32(uint32(len(bkts)))
		for _, bkt := range bkts {
			w.I32s(bkt)
		}
	}
	w.Ints(s.maxCount)
	w.I64s(s.closeSeq)
	w.I64(s.seq)
}

// DecodeTrackerState reads a TrackerState written by EncodeTrackerState.
func DecodeTrackerState(r *ckpt.Reader) TrackerState {
	s := TrackerState{
		invalid: r.I32s(),
		inBkt:   r.I32s(),
	}
	s.buckets = make([][][]int32, r.SliceLen(4))
	for p := range s.buckets {
		s.buckets[p] = make([][]int32, r.SliceLen(4))
		for c := range s.buckets[p] {
			s.buckets[p][c] = r.I32s()
		}
	}
	s.maxCount = r.Ints()
	s.closeSeq = r.I64s()
	s.seq = r.I64()
	return s
}
