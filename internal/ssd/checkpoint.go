package ssd

import (
	"fmt"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/sim"
	"dloop/internal/stats"
)

// Checkpoint is a deep, immutable copy of a controller's complete simulation
// state: every FTL shard's flash device and FTL, and the measurement
// accumulators. One checkpoint taken after a shared warm-up can fork any
// number of divergent runs, each bit-identical to an uninterrupted fresh run
// of the same cell.
//
// The attached observability recorder is deliberately NOT part of the
// checkpoint: recorders are per-cell plumbing, attached after a restore and
// detached before the next one.
type Checkpoint struct {
	shards []shardState // in shard order; one on a single-FTL controller

	resp, readResp, writeResp stats.Welford
	hist                      stats.LatencyHist
	series                    *stats.TimeSeries
	lastDone                  sim.Time
	served                    int64
	pagesRead                 int64
	pagesWrit                 int64
}

// shardState is one FTL shard's device and FTL state.
type shardState struct {
	dev *flash.DeviceState
	ftl any
}

// Snapshot captures the controller's state, after folding any in-flight
// work. It fails if the FTL scheme does not implement ftl.Snapshotter (all
// in-tree schemes do).
func (c *Controller) Snapshot() (*Checkpoint, error) {
	if err := c.quiesce(false); err != nil {
		return nil, err
	}
	cp := &Checkpoint{shards: make([]shardState, len(c.shards))}
	for i, sh := range c.shards {
		snapper, ok := sh.f.(ftl.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("ssd: FTL %s does not support checkpointing", sh.f.Name())
		}
		cp.shards[i] = shardState{dev: sh.dev.Snapshot(), ftl: snapper.Snapshot()}
	}
	cp.resp = c.resp
	cp.readResp = c.readResp
	cp.writeResp = c.writeResp
	cp.hist = c.hist.Clone()
	cp.series = c.series.Clone()
	cp.lastDone = c.lastDone
	cp.served = c.served
	cp.pagesRead = c.pagesRead
	cp.pagesWrit = c.pagesWrit
	return cp, nil
}

// Restore rewinds the controller to a checkpoint taken from an identically
// configured one. The checkpoint is untouched — Restore clones anything
// mutable on its way in — so the same checkpoint may seed any number of
// forks.
func (c *Controller) Restore(cp *Checkpoint) error {
	if cp == nil || len(cp.shards) != len(c.shards) {
		return fmt.Errorf("ssd: checkpoint does not match this controller's %d FTL shards", len(c.shards))
	}
	// In-flight work belongs to the run being abandoned; a failed run's
	// error stays sticky and surfaces at the next request.
	_ = c.quiesce(true)
	for i, sh := range c.shards {
		snapper, ok := sh.f.(ftl.Snapshotter)
		if !ok {
			return fmt.Errorf("ssd: FTL %s does not support checkpointing", sh.f.Name())
		}
		if err := snapper.Restore(cp.shards[i].ftl); err != nil {
			return err
		}
		sh.dev.Restore(cp.shards[i].dev)
	}
	c.resp = cp.resp
	c.readResp = cp.readResp
	c.writeResp = cp.writeResp
	c.hist = cp.hist.Clone()
	c.series = cp.series.Clone()
	c.lastDone = cp.lastDone
	c.served = cp.served
	c.pagesRead = cp.pagesRead
	c.pagesWrit = cp.pagesWrit
	return nil
}
