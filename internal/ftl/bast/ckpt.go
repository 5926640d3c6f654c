package bast

import (
	"fmt"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
)

// EncodeState appends a BAST Snapshot (the any returned by Snapshot) to w.
func EncodeState(w *ckpt.Writer, snap any) error {
	s, ok := snap.(*state)
	if !ok {
		return fmt.Errorf("bast: foreign snapshot %T", snap)
	}
	ftl.EncodeFreeBlocksState(w, s.pool)
	w.I64s(s.dataBlock)
	w.U32(uint32(len(s.logs)))
	for _, l := range s.logs {
		w.Bool(l != nil)
		if l == nil {
			continue
		}
		w.I64(l.lbn)
		w.Int(l.pb.Plane)
		w.Int(l.pb.Block)
		w.Int(l.next)
		w.Ints(l.pageFor)
		w.Bool(l.seq)
	}
	w.Int(s.nLogs)
	w.I64s(s.logOrder)
	gc.EncodeState(w, s.engine)
	w.I64(s.stats.SwitchMerges)
	w.I64(s.stats.FullMerges)
	w.I64(s.stats.MergeCopies)
	w.I64(s.stats.Thrashes)
	return nil
}

// DecodeState reads a snapshot written by EncodeState, in the form
// BAST.Restore accepts.
func DecodeState(r *ckpt.Reader) any {
	s := &state{
		pool:      ftl.DecodeFreeBlocksState(r),
		dataBlock: r.I64s(),
	}
	s.logs = make([]*logBlock, r.SliceLen(1))
	for i := range s.logs {
		if !r.Bool() {
			continue
		}
		s.logs[i] = &logBlock{
			lbn:     r.I64(),
			pb:      flash.PlaneBlock{Plane: r.Int(), Block: r.Int()},
			next:    r.Int(),
			pageFor: r.Ints(),
			seq:     r.Bool(),
		}
	}
	s.nLogs = r.Int()
	s.logOrder = r.I64s()
	s.engine = gc.DecodeState(r)
	s.stats = Stats{
		SwitchMerges: r.I64(),
		FullMerges:   r.I64(),
		MergeCopies:  r.I64(),
		Thrashes:     r.I64(),
	}
	return s
}
