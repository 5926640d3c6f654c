package pagemap

import (
	"fmt"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
)

// EncodeState appends a PureMap Snapshot (the any returned by Snapshot) to w.
func EncodeState(w *ckpt.Writer, snap any) error {
	s, ok := snap.(*state)
	if !ok {
		return fmt.Errorf("pagemap: foreign snapshot %T", snap)
	}
	flash.EncodePPNMap(w, s.table)
	ftl.EncodeFreeBlocksState(w, s.pool)
	ftl.EncodeTrackerState(w, s.tracker)
	w.U32(uint32(len(s.cur)))
	for _, wp := range s.cur {
		w.Int(wp.pb.Plane)
		w.Int(wp.pb.Block)
		w.Int(wp.next)
		w.Bool(wp.active)
	}
	gc.EncodeState(w, s.engine)
	return nil
}

// DecodeState reads a snapshot written by EncodeState, in the form
// PureMap.Restore accepts.
func DecodeState(r *ckpt.Reader) any {
	s := &state{table: flash.DecodePPNMap(r)}
	s.pool = ftl.DecodeFreeBlocksState(r)
	s.tracker = ftl.DecodeTrackerState(r)
	s.cur = make([]writePoint, r.SliceLen(25)) // three i64 and a bool each
	for i := range s.cur {
		s.cur[i] = writePoint{
			pb:     flash.PlaneBlock{Plane: r.Int(), Block: r.Int()},
			next:   r.Int(),
			active: r.Bool(),
		}
	}
	s.engine = gc.DecodeState(r)
	return s
}
