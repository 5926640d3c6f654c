package fast

import (
	"encoding/binary"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/obs"
)

// EncodeState implements ftl.FTL: the free pool, block map, the SW/RW log
// blocks, the engine's run count and the merge counts. The log blocks'
// cursors and the log page map are not written: a log block's next page is
// its high-water mark on the device, and the log map is its log blocks'
// valid pages, which DecodeState enters again.
func (f *FAST) EncodeState(w *ckpt.Writer) {
	f.pool.EncodeState(w)
	w.U32(uint32(len(f.dataBlock))) // an int64 slab of block indices, -1 for none
	dst := w.Raw(8 * len(f.dataBlock))
	for i, b := range f.dataBlock {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(int64(b)-1))
	}
	w.I64(f.swLBN)
	encodePlaneBlock(w, f.swBlock)
	w.Bool(f.rwActive)
	encodePlaneBlock(w, f.rwBlock)
	w.U32(uint32(len(f.rwFull)))
	for _, pb := range f.rwFull {
		encodePlaneBlock(w, pb)
	}
	f.engine.EncodeState(w)
	w.I64(f.counts[obs.EvSwitchMerge])
	w.I64(f.counts[obs.EvPartialMerge])
	w.I64(f.counts[obs.EvFullMerge])
	w.I64(f.counts[obs.EvMergeCopy])
}

// DecodeState implements ftl.FTL, overwriting the live state in place and
// writing only the column entries that change; the device must be decoded
// first. A mapped logical block names a block of the device, the SW log's
// logical block one of the space, and every log block lies on the device.
// The log map is rebuilt from the log blocks' valid pages, each of which
// must hold an LPN of the space that no other log page holds. The counts
// the checkpoint does not carry restart from zero.
func (f *FAST) DecodeState(r *ckpt.Reader) {
	f.counts = obs.Counts{}
	f.pool.DecodeState(r, f.dev)
	raw := r.Raw(8 * r.ExpectLen(len(f.dataBlock), 8))
	var buf [256]int64
	for i := 0; i < len(raw)/8; i += len(buf) {
		chunk := buf[:min(len(buf), len(raw)/8-i)]
		ckpt.Load(chunk, raw[8*i:])
		for j, b := range chunk {
			if b < -1 || b >= f.geo.TotalBlocks() {
				r.Failf("fast: logical block %d mapped to block %d of %d", i+j, b, f.geo.TotalBlocks())
				return
			}
			if lbn := i + j; f.dataBlock[lbn] != uint32(b+1) {
				f.dataBlock[lbn] = uint32(b + 1)
			}
		}
	}
	if f.swLBN = r.I64(); f.swLBN < -1 || f.swLBN >= int64(len(f.dataBlock)) {
		r.Failf("fast: SW log of logical block %d in a %d-block space", f.swLBN, len(f.dataBlock))
		return
	}
	f.swBlock = f.decodePlaneBlock(r)
	f.rwActive = r.Bool()
	f.rwBlock = f.decodePlaneBlock(r)
	nf := r.SliceLen(16)
	f.rwFull = f.rwFull[:0]
	for i := 0; i < nf; i++ {
		f.rwFull = append(f.rwFull, f.decodePlaneBlock(r))
	}
	f.engine.DecodeState(r)
	f.counts[obs.EvSwitchMerge] = r.I64()
	f.counts[obs.EvPartialMerge] = r.I64()
	f.counts[obs.EvFullMerge] = r.I64()
	f.counts[obs.EvMergeCopy] = r.I64()
	for _, w := range f.logMap.slots { // clear inLog only where it is set
		if w != 0 {
			f.inLog[w>>38] &^= 1 << (w >> 32 & 63)
		}
	}
	f.logMap.reset()
	if r.Err() != nil {
		return
	}
	add := func(pb flash.PlaneBlock) {
		if err := f.addLogBlock(pb); err != nil {
			r.Failf("%w", err)
		}
	}
	if f.swLBN >= 0 {
		add(f.swBlock)
	}
	if f.rwActive {
		add(f.rwBlock)
	}
	for _, pb := range f.rwFull {
		add(pb)
	}
}

func encodePlaneBlock(w *ckpt.Writer, pb flash.PlaneBlock) {
	w.Int(pb.Plane)
	w.Int(pb.Block)
}

// decodePlaneBlock reads a block address, which must lie in the device.
func (f *FAST) decodePlaneBlock(r *ckpt.Reader) flash.PlaneBlock {
	pb := flash.PlaneBlock{Plane: r.Int(), Block: r.Int()}
	if !f.geo.ValidBlock(pb) {
		r.Failf("fast: log block %+v outside the device", pb)
		return flash.PlaneBlock{}
	}
	return pb
}
