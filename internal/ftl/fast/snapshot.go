package fast

import (
	"fmt"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/gc"
)

// state is FAST's checkpoint: block map, log page map, and the SW/RW log
// block machinery.
type state struct {
	pool      ftl.FreeBlocksState
	dataBlock []int64
	logMap    flash.PPNMap
	swLBN     int64
	swBlock   flash.PlaneBlock
	swNext    int
	rwActive  bool
	rwBlock   flash.PlaneBlock
	rwNext    int
	rwFull    []flash.PlaneBlock
	engine    gc.State
	stats     Stats
}

// Snapshot implements ftl.Snapshotter.
func (f *FAST) Snapshot() any {
	return &state{
		pool:      f.pool.Snapshot(),
		dataBlock: append([]int64(nil), f.dataBlock...),
		logMap:    append(flash.PPNMap(nil), f.logMap...),
		swLBN:     f.swLBN,
		swBlock:   f.swBlock,
		swNext:    f.swNext,
		rwActive:  f.rwActive,
		rwBlock:   f.rwBlock,
		rwNext:    f.rwNext,
		rwFull:    append([]flash.PlaneBlock(nil), f.rwFull...),
		engine:    f.engine.Snapshot(),
		stats:     f.stats,
	}
}

// Restore implements ftl.Snapshotter.
func (f *FAST) Restore(snap any) error {
	s, ok := snap.(*state)
	if !ok {
		return fmt.Errorf("fast: foreign snapshot %T", snap)
	}
	f.pool.Restore(s.pool)
	copy(f.dataBlock, s.dataBlock)
	copy(f.logMap, s.logMap)
	f.swLBN = s.swLBN
	f.swBlock = s.swBlock
	f.swNext = s.swNext
	f.rwActive = s.rwActive
	f.rwBlock = s.rwBlock
	f.rwNext = s.rwNext
	f.rwFull = append(f.rwFull[:0], s.rwFull...)
	f.engine.Restore(s.engine)
	f.stats = s.stats
	return nil
}
