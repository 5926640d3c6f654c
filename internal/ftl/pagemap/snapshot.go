package pagemap

import (
	"fmt"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
)

// state is PureMap's checkpoint: the in-SRAM table plus pool, tracker, and
// write points.
type state struct {
	table   flash.PPNMap
	pool    ftl.FreeBlocksState
	tracker ftl.TrackerState
	cur     []writePoint
	engine  gc.State
}

// Snapshot implements ftl.Snapshotter.
func (f *PureMap) Snapshot() any {
	return &state{
		table:   append(flash.PPNMap(nil), f.table...),
		pool:    f.pool.Snapshot(),
		tracker: f.tracker.Snapshot(),
		cur:     append([]writePoint(nil), f.cur...),
		engine:  f.engine.Snapshot(),
	}
}

// Restore implements ftl.Snapshotter.
func (f *PureMap) Restore(snap any) error {
	s, ok := snap.(*state)
	if !ok {
		return fmt.Errorf("pagemap: foreign snapshot %T", snap)
	}
	copy(f.table, s.table)
	f.pool.Restore(s.pool)
	f.tracker.Restore(s.tracker)
	copy(f.cur, s.cur)
	f.engine.Restore(s.engine)
	return nil
}
