package pagemap

import (
	"fmt"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
	"dloop/internal/ftl/translate"
)

// state is the checkpoint: a deep copy of everything that changes as
// requests are served. Geometry, config, capacity, and the striping
// permutation are construction-time constants and stay out.
type state struct {
	layout      Layout // not encoded: the decoder is told it
	mapper      translate.State
	table       flash.PPNMap
	pool        ftl.FreeBlocksState
	tracker     ftl.TrackerState
	cur         []writePoint
	engine      gc.State
	planeWrites []int64
	totalWrites int64
}

// Snapshot implements ftl.Snapshotter.
func (f *FTL) Snapshot() any {
	s := &state{
		layout:      f.cfg.Layout,
		pool:        f.pool.Snapshot(),
		tracker:     f.tracker.Snapshot(),
		cur:         append([]writePoint(nil), f.cur...),
		engine:      f.engine.Snapshot(),
		planeWrites: append([]int64(nil), f.planeWrites...),
		totalWrites: f.totalWrites,
	}
	if f.mapper != nil {
		s.mapper = f.mapper.Snapshot()
	} else {
		s.table = append(flash.PPNMap(nil), f.table...)
	}
	return s
}

// Restore implements ftl.Snapshotter.
func (f *FTL) Restore(snap any) error {
	s, ok := snap.(*state)
	if !ok || s.layout.Name() != f.Name() {
		return fmt.Errorf("pagemap: foreign snapshot %T", snap)
	}
	if f.mapper != nil {
		f.mapper.Restore(s.mapper)
	} else {
		copy(f.table, s.table)
	}
	f.pool.Restore(s.pool)
	f.tracker.Restore(s.tracker)
	copy(f.cur, s.cur)
	f.engine.Restore(s.engine)
	copy(f.planeWrites, s.planeWrites)
	f.totalWrites = s.totalWrites
	return nil
}

// EncodeState appends a Snapshot (the any returned by Snapshot) to w. Each
// preset keeps the byte layout it had as a package of its own, so warm-up
// cache files stay valid: the ideal table in place of the translation
// state, DFTL's two logs without a count, and DLOOP's per-plane write
// counts at the end.
func EncodeState(w *ckpt.Writer, snap any) error {
	s, ok := snap.(*state)
	if !ok {
		return fmt.Errorf("pagemap: foreign snapshot %T", snap)
	}
	if s.layout.DemandPaged {
		translate.EncodeState(w, s.mapper)
	} else {
		flash.EncodePPNMap(w, s.table)
	}
	ftl.EncodeFreeBlocksState(w, s.pool)
	ftl.EncodeTrackerState(w, s.tracker)
	if !s.layout.twinLogs() {
		w.U32(uint32(len(s.cur)))
	}
	for _, wp := range s.cur {
		w.Int(wp.pb.Plane)
		w.Int(wp.pb.Block)
		w.Int(wp.next)
		w.Bool(wp.active)
	}
	gc.EncodeState(w, s.engine)
	if s.layout.countsPlaneWrites() {
		w.I64s(s.planeWrites)
		w.I64(s.totalWrites)
	}
	return nil
}

// DecodeState reads a snapshot EncodeState wrote for a scheme of layout l,
// in the form Restore accepts.
func DecodeState(r *ckpt.Reader, l Layout) any {
	s := &state{layout: l}
	if l.DemandPaged {
		s.mapper = translate.DecodeState(r)
	} else {
		s.table = flash.DecodePPNMap(r)
	}
	s.pool = ftl.DecodeFreeBlocksState(r)
	s.tracker = ftl.DecodeTrackerState(r)
	n := 2
	if !l.twinLogs() {
		n = r.SliceLen(25) // three i64 and a bool each
	}
	s.cur = make([]writePoint, n)
	for i := range s.cur {
		s.cur[i] = writePoint{
			pb:     flash.PlaneBlock{Plane: r.Int(), Block: r.Int()},
			next:   r.Int(),
			active: r.Bool(),
		}
	}
	s.engine = gc.DecodeState(r)
	if l.countsPlaneWrites() {
		s.planeWrites = r.I64s()
		s.totalWrites = r.I64()
	}
	return s
}
