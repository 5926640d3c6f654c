package fast

import (
	"dloop/internal/ckpt"
	"dloop/internal/flash"
)

// EncodeState implements ftl.FTL: the free pool, block map, log page map,
// the SW/RW log block machinery, the engine's guards and the merge counters.
func (f *FAST) EncodeState(w *ckpt.Writer) {
	f.pool.EncodeState(w)
	w.I64s(f.dataBlock)
	f.logMap.EncodeState(w)
	w.I64(f.swLBN)
	encodePlaneBlock(w, f.swBlock)
	w.Int(f.swNext)
	w.Bool(f.rwActive)
	encodePlaneBlock(w, f.rwBlock)
	w.Int(f.rwNext)
	w.U32(uint32(len(f.rwFull)))
	for _, pb := range f.rwFull {
		encodePlaneBlock(w, pb)
	}
	f.engine.EncodeState(w)
	w.I64(f.stats.SwitchMerges)
	w.I64(f.stats.PartialMerges)
	w.I64(f.stats.FullMerges)
	w.I64(f.stats.MergeCopies)
}

// DecodeState implements ftl.FTL, overwriting the live state in place.
func (f *FAST) DecodeState(r *ckpt.Reader) {
	f.pool.DecodeState(r)
	r.I64sInto(f.dataBlock)
	f.logMap.DecodeState(r)
	f.swLBN = r.I64()
	f.swBlock = decodePlaneBlock(r)
	f.swNext = r.Int()
	f.rwActive = r.Bool()
	f.rwBlock = decodePlaneBlock(r)
	f.rwNext = r.Int()
	nf := r.SliceLen(16)
	f.rwFull = f.rwFull[:0]
	for i := 0; i < nf; i++ {
		f.rwFull = append(f.rwFull, decodePlaneBlock(r))
	}
	f.engine.DecodeState(r)
	f.stats = Stats{
		SwitchMerges:  r.I64(),
		PartialMerges: r.I64(),
		FullMerges:    r.I64(),
		MergeCopies:   r.I64(),
	}
}

func encodePlaneBlock(w *ckpt.Writer, pb flash.PlaneBlock) {
	w.Int(pb.Plane)
	w.Int(pb.Block)
}

func decodePlaneBlock(r *ckpt.Reader) flash.PlaneBlock {
	return flash.PlaneBlock{Plane: r.Int(), Block: r.Int()}
}
