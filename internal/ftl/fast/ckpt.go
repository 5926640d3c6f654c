package fast

import (
	"fmt"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
)

// EncodeState appends a FAST Snapshot (the any returned by Snapshot) to w.
func EncodeState(w *ckpt.Writer, snap any) error {
	s, ok := snap.(*state)
	if !ok {
		return fmt.Errorf("fast: foreign snapshot %T", snap)
	}
	ftl.EncodeFreeBlocksState(w, s.pool)
	w.I64s(s.dataBlock)
	flash.EncodePPNMap(w, s.logMap)
	w.I64(s.swLBN)
	encodePlaneBlock(w, s.swBlock)
	w.Int(s.swNext)
	w.Bool(s.rwActive)
	encodePlaneBlock(w, s.rwBlock)
	w.Int(s.rwNext)
	w.U32(uint32(len(s.rwFull)))
	for _, pb := range s.rwFull {
		encodePlaneBlock(w, pb)
	}
	gc.EncodeState(w, s.engine)
	w.I64(s.stats.SwitchMerges)
	w.I64(s.stats.PartialMerges)
	w.I64(s.stats.FullMerges)
	w.I64(s.stats.MergeCopies)
	return nil
}

// DecodeState reads a snapshot written by EncodeState, in the form
// FAST.Restore accepts.
func DecodeState(r *ckpt.Reader) any {
	s := &state{
		pool:      ftl.DecodeFreeBlocksState(r),
		dataBlock: r.I64s(),
		logMap:    flash.DecodePPNMap(r),
	}
	s.swLBN = r.I64()
	s.swBlock = decodePlaneBlock(r)
	s.swNext = r.Int()
	s.rwActive = r.Bool()
	s.rwBlock = decodePlaneBlock(r)
	s.rwNext = r.Int()
	if nf := r.SliceLen(16); nf > 0 {
		s.rwFull = make([]flash.PlaneBlock, nf)
		for i := range s.rwFull {
			s.rwFull[i] = decodePlaneBlock(r)
		}
	}
	s.engine = gc.DecodeState(r)
	s.stats = Stats{
		SwitchMerges:  r.I64(),
		PartialMerges: r.I64(),
		FullMerges:    r.I64(),
		MergeCopies:   r.I64(),
	}
	return s
}

func encodePlaneBlock(w *ckpt.Writer, pb flash.PlaneBlock) {
	w.Int(pb.Plane)
	w.Int(pb.Block)
}

func decodePlaneBlock(r *ckpt.Reader) flash.PlaneBlock {
	return flash.PlaneBlock{Plane: r.Int(), Block: r.Int()}
}
