package fast

import (
	"math/bits"
	"slices"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
)

// EncodeState implements ftl.FTL: the free pool, block map, the SW/RW log
// block machinery, the log page map, the engine's guards and the merge
// counters. The log map goes out as a count and (LPN, PPN) pairs in LPN
// order.
func (f *FAST) EncodeState(w *ckpt.Writer) {
	f.pool.EncodeState(w)
	w.I64s(f.dataBlock)
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
	w.U32(uint32(len(f.logMap)))
	for i, word := range f.inLog {
		for ; word != 0; word &= word - 1 {
			lpn := ftl.LPN(64*i + bits.TrailingZeros64(word))
			w.I64(int64(lpn))
			w.I64(int64(f.logMap[lpn]))
		}
	}
	f.engine.EncodeState(w)
	w.I64(f.stats.SwitchMerges)
	w.I64(f.stats.PartialMerges)
	w.I64(f.stats.FullMerges)
	w.I64(f.stats.MergeCopies)
}

// DecodeState implements ftl.FTL, overwriting the live state in place. Every
// log block must lie in the device. The log map's pairs must come in
// ascending LPN order, each an LPN of the space and a page of one of the
// decoded log blocks, and there can be no more of them than those blocks
// have pages.
func (f *FAST) DecodeState(r *ckpt.Reader) {
	f.pool.DecodeState(r)
	r.I64sInto(f.dataBlock)
	f.swLBN = r.I64()
	f.swBlock = f.decodePlaneBlock(r)
	f.swNext = r.Int()
	f.rwActive = r.Bool()
	f.rwBlock = f.decodePlaneBlock(r)
	f.rwNext = r.Int()
	nf := r.SliceLen(16)
	f.rwFull = f.rwFull[:0]
	for i := 0; i < nf; i++ {
		f.rwFull = append(f.rwFull, f.decodePlaneBlock(r))
	}
	f.decodeLogMap(r)
	f.engine.DecodeState(r)
	f.stats = Stats{
		SwitchMerges:  r.I64(),
		PartialMerges: r.I64(),
		FullMerges:    r.I64(),
		MergeCopies:   r.I64(),
	}
}

func (f *FAST) decodeLogMap(r *ckpt.Reader) {
	clear(f.inLog)
	clear(f.logMap)
	n := r.SliceLen(16) // LPN, PPN
	if r.Err() != nil {
		return
	}
	logs := make([]int64, 0, len(f.rwFull)+2)
	if f.swLBN >= 0 {
		logs = append(logs, f.geo.BlockIndex(f.swBlock))
	}
	if f.rwActive {
		logs = append(logs, f.geo.BlockIndex(f.rwBlock))
	}
	for _, pb := range f.rwFull {
		logs = append(logs, f.geo.BlockIndex(pb))
	}
	if n > len(logs)*f.geo.PagesPerBlock {
		r.Failf("fast: log map holds %d pages, its %d log blocks %d", n, len(logs), len(logs)*f.geo.PagesPerBlock)
		return
	}
	slices.Sort(logs)
	prev := ftl.LPN(-1)
	for i := 0; i < n; i++ {
		lpn, ppn := ftl.LPN(r.I64()), flash.PPN(r.I64())
		if lpn <= prev || lpn >= f.capacity {
			r.Failf("fast: log map entry %d holds lpn %d after %d in a %d-page space", i, lpn, prev, f.capacity)
			return
		}
		if _, ok := slices.BinarySearch(logs, int64(ppn)/int64(f.geo.PagesPerBlock)); !ok || ppn < 0 {
			r.Failf("fast: log map places lpn %d at page %d, outside every log block", lpn, ppn)
			return
		}
		f.setLog(lpn, ppn)
		prev = lpn
	}
}

func encodePlaneBlock(w *ckpt.Writer, pb flash.PlaneBlock) {
	w.Int(pb.Plane)
	w.Int(pb.Block)
}

// decodePlaneBlock reads a block address, which must lie in the device.
func (f *FAST) decodePlaneBlock(r *ckpt.Reader) flash.PlaneBlock {
	pb := flash.PlaneBlock{Plane: r.Int(), Block: r.Int()}
	if pb.Plane < 0 || pb.Plane >= f.geo.Planes() || pb.Block < 0 || pb.Block >= f.geo.BlocksPerPlane {
		r.Failf("fast: log block %+v outside the device", pb)
		return flash.PlaneBlock{}
	}
	return pb
}
