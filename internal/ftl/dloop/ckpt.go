package dloop

import (
	"fmt"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
	"dloop/internal/ftl/translate"
)

// EncodeState appends a DLOOP Snapshot (the any returned by Snapshot) to w.
func EncodeState(w *ckpt.Writer, snap any) error {
	s, ok := snap.(*state)
	if !ok {
		return fmt.Errorf("dloop: foreign snapshot %T", snap)
	}
	translate.EncodeState(w, s.mapper)
	ftl.EncodeFreeBlocksState(w, s.pool)
	ftl.EncodeTrackerState(w, s.tracker)
	w.U32(uint32(len(s.cur)))
	for _, wp := range s.cur {
		encodeWritePoint(w, wp)
	}
	gc.EncodeState(w, s.engine)
	w.I64s(s.planeWrites)
	w.I64(s.totalWrites)
	return nil
}

// DecodeState reads a snapshot written by EncodeState, in the form
// DLOOP.Restore accepts.
func DecodeState(r *ckpt.Reader) any {
	s := &state{
		mapper:  translate.DecodeState(r),
		pool:    ftl.DecodeFreeBlocksState(r),
		tracker: ftl.DecodeTrackerState(r),
	}
	s.cur = make([]writePoint, r.SliceLen(25)) // three i64 and a bool each
	for i := range s.cur {
		s.cur[i] = decodeWritePoint(r)
	}
	s.engine = gc.DecodeState(r)
	s.planeWrites = r.I64s()
	s.totalWrites = r.I64()
	return s
}

func encodeWritePoint(w *ckpt.Writer, wp writePoint) {
	w.Int(wp.pb.Plane)
	w.Int(wp.pb.Block)
	w.Int(wp.next)
	w.Bool(wp.active)
}

func decodeWritePoint(r *ckpt.Reader) writePoint {
	return writePoint{
		pb:     flash.PlaneBlock{Plane: r.Int(), Block: r.Int()},
		next:   r.Int(),
		active: r.Bool(),
	}
}
